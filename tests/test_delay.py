"""Group delay, zero-reflection roots, and the advance/delay transition.

The independent oracle here is a five-point finite-difference derivative of
the closed-form reflection phase, computed inline; the analytic route must
match it, and both module methods must agree on whole traces.
"""

import cmath
import math
import re
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE, examples, valid_drives, valid_params
from magpol.delay import (
    _BLOCK_SAMPLES,
    _CHUNK_SAMPLES,
    _JUMP_FACTOR,
    DelayTrace,
    TransitionReport,
    TransitionSign,
    _DelayKernel,
    delay_at,
    delay_extremum_vs_ratio,
    detect_abrupt_transition,
    find_zero_reflection,
    group_delay,
)
from magpol.errors import DomainError
from magpol.model import (
    MAX_MAGNITUDE,
    DriveField,
    SystemParams,
    _drive_coefficient,
    _pump_term,
    _Response,
    transmission,
)
from magpol.spectra import DetuningGrid, _median


def fd_phase_slope_delay(params, drive, detuning, h=1e-4):
    """Five-point finite difference of the reflection phase, in us."""

    def phase(d):
        return cmath.phase(transmission(params, drive, params.cavity_freq - d))

    p_m2, p_m1, p_p1, p_p2 = (
        phase(detuning + k * h) for k in (-2.0, -1.0, 1.0, 2.0)
    )
    slope = (p_m2 - 8.0 * p_m1 + 8.0 * p_p1 - p_p2) / (12.0 * h)
    return -slope / (2.0 * math.pi)


def exact_response(params, drive, detuning):
    """(num, den, dnum, dden) at one detuning as (re, im) pairs in exact
    rational arithmetic on the float inputs; the pump term is taken as its
    float value."""
    d = Fraction(detuning)
    d_m = d + Fraction(params.magnon_freq) - Fraction(params.cavity_freq)
    kappa_c, kappa_m = Fraction(params.kappa_c), Fraction(params.kappa_m)
    a_ext = kappa_c - 2 * Fraction(params.kappa_c1)
    g2 = Fraction(params.coupling_g) ** 2
    pump_amp = 2.0 * params.coupling_g * math.sqrt(params.kappa_c1 * params.kappa_m1)
    pump = 1j * (pump_amp * drive.ratio_delta) * cmath.exp(-1j * drive.effective_phase)
    num = (
        a_ext * kappa_m - d * d_m + g2 + Fraction(pump.real),
        a_ext * d_m + d * kappa_m + Fraction(pump.imag),
    )
    den = (kappa_c * kappa_m - d * d_m + g2, kappa_c * d_m + d * kappa_m)
    dnum = (-(d + d_m), a_ext + kappa_m)
    dden = (-(d + d_m), kappa_c + kappa_m)
    return num, den, dnum, dden


def norm2(z):
    return z[0] ** 2 + z[1] ** 2


def im_ratio(a, b):
    """Im(a/b) for (re, im) pairs."""
    return (a[1] * b[0] - a[0] * b[1]) / norm2(b)


def exact_delay(params, drive, detuning):
    """-(Im(dnum/num) - Im(dden/den)) / 2pi and the scale
    (|Im(dnum/num)| + |Im(dden/den)|) / 2pi, exactly but for 2pi itself."""
    num, den, dnum, dden = exact_response(params, drive, detuning)
    im_num, im_den = im_ratio(dnum, num), im_ratio(dden, den)
    two_pi = Fraction(2.0 * math.pi)
    return float((im_den - im_num) / two_pi), float((abs(im_num) + abs(im_den)) / two_pi)


def scaled(params, k):
    """params with every rate and frequency multiplied by 2**k."""
    return replace(params, **{f.name: math.ldexp(getattr(params, f.name), k) for f in fields(params)})


def extremum_reference(params, phase_eff, ratios, grid):
    """One full group_delay trace per ratio: the plain loop that
    delay_extremum_vs_ratio must reproduce bit for bit."""
    out = np.empty(len(ratios))
    for i, ratio in enumerate(ratios):
        drive = DriveField.with_effective_phase(float(ratio), phase_eff)
        tr = group_delay(params, drive, grid, method="analytic")
        finite = ~tr.diverged
        if not np.any(finite):
            raise DomainError(f"all samples diverged at ratio {ratio}")
        delays = tr.delay[finite]
        out[i] = delays[int(np.argmax(np.abs(delays)))]
    return out


class TestDelayAt:
    def test_frozen_baseline_delay(self, params, drive_off):
        tau = delay_at(params, drive_off, 0.0)
        assert tau == pytest.approx(0.0141426, rel=1e-4)
        assert 0.012 < tau < 0.020  # 12..20 ns

    def test_bare_cavity_advance_closed_form(self, drive_off):
        bare = SystemParams(0.0, 0.0, 0.0, 113.9, 1.2, 21.8, 0.6)
        tau = delay_at(bare, drive_off, 0.0)
        expected = -21.8 / (math.pi * 113.9 * (113.9 - 2.0 * 21.8))
        assert tau == pytest.approx(expected, rel=1e-12)
        assert tau == pytest.approx(-8.666e-4, rel=1e-3)

    @pytest.mark.parametrize(
        "ratio,phi,detuning",
        [
            (0.0, 0.0, 0.0),
            (1.2, 1.35 * math.pi, 0.5),
            (2.0, 0.35 * math.pi, -3.0),
            (0.75, 0.35 * math.pi, 1.5),
            (0.0, 0.0, 25.0),
        ],
    )
    def test_matches_phase_slope_oracle(self, params, ratio, phi, detuning):
        drive = DriveField(ratio_delta=ratio, phase_phi=phi)
        analytic = delay_at(params, drive, detuning)
        oracle = fd_phase_slope_delay(params, drive, detuning)
        assert analytic == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_even_in_detuning_without_pump(self, params, drive_off):
        for detuning in (0.7, 3.0, 22.0):
            assert delay_at(params, drive_off, detuning) == pytest.approx(
                delay_at(params, drive_off, -detuning), rel=1e-12
            )

    @pytest.mark.parametrize("detuning", [math.nan, math.inf])
    def test_non_finite_detuning_rejected(self, params, drive_off, detuning):
        with pytest.raises(DomainError, match="finite"):
            delay_at(params, drive_off, detuning)

    def test_diverges_at_zero_reflection(self, params):
        root = find_zero_reflection(params, 1.35 * math.pi)
        drive = DriveField.with_effective_phase(root.ratio_delta, 1.35 * math.pi)
        with pytest.raises(DomainError, match="diverges"):
            delay_at(params, drive, root.detuning)


@given(
    valid_params(),
    valid_drives(),
    st.floats(-500.0, 0.0),
    st.floats(1e-3, 1000.0),
    st.integers(0, 40),
)
@settings(max_examples=examples(100), deadline=None)
def test_delay_at_equals_group_delay_bit_for_bit(params, drive, start, span, index):
    grid = DetuningGrid(start, start + span, 41)
    result = group_delay(params, drive, grid)
    detuning = float(grid.values[index])
    if result.diverged[index]:
        with pytest.raises(DomainError, match="diverges"):
            delay_at(params, drive, detuning)
    else:
        assert delay_at(params, drive, detuning) == result.delay[index]


class TestGroupDelay:
    def test_analytic_matches_finite_difference(self, params):
        drive = DriveField(ratio_delta=1.2, phase_phi=0.35 * math.pi)
        width = params.feature_width()
        grid = DetuningGrid(-6.0 * width, 6.0 * width, 2401)
        analytic = group_delay(params, drive, grid, method="analytic")
        fd = group_delay(params, drive, grid, method="finite-difference")
        keep = ~(analytic.diverged | fd.diverged)
        scale = np.max(np.abs(analytic.delay[keep]))
        assert np.max(np.abs(analytic.delay[keep] - fd.delay[keep])) < 1e-4 * scale

    def test_finite_difference_needs_three_samples(self, params, drive_off):
        with pytest.raises(DomainError, match="at least 3 grid samples"):
            group_delay(params, drive_off, DetuningGrid(-1.0, 1.0, 2), method="finite-difference")

    def test_finite_difference_on_a_grid_far_below_the_rates(self, drive_off):
        # g sets the prescale 1e293 times above the grid span; np.gradient's
        # spacing products on the prescaled detunings underflowed to 0 (nan)
        device = SystemParams(3e-295, -2e-295, 1.0, 1.139e-293, 1.2e-295, 2.18e-294, 6e-296)
        grid = DetuningGrid(-6e-294, 6e-294, 4)
        fd = group_delay(device, drive_off, grid, method="finite-difference")
        assert np.all(np.isfinite(fd.delay))

    def test_unknown_method_rejected(self, params, drive_off):
        with pytest.raises(DomainError, match="method"):
            group_delay(params, drive_off, DetuningGrid(-1.0, 1.0, 11), method="spline")

    def test_trace_fields_are_readonly_and_sized(self, params, drive_off):
        grid = DetuningGrid(-1.0, 1.0, 11)
        result = group_delay(params, drive_off, grid)
        assert isinstance(result, DelayTrace)
        for name in ("t", "delay", "diverged"):
            arr = getattr(result, name)
            assert arr.shape == (11,)
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_diverged_sample_gets_infinite_sentinel(self, params):
        root = find_zero_reflection(params, 1.35 * math.pi)
        drive = DriveField.with_effective_phase(root.ratio_delta, 1.35 * math.pi)
        values = root.detuning + 0.01 * (np.arange(21) - 10)
        grid = DetuningGrid.from_values(values)
        result = group_delay(params, drive, grid, method="analytic")
        assert result.diverged[10]
        assert np.isinf(result.delay[10])
        assert not result.diverged[9] and not result.diverged[11]
        assert np.isfinite(result.delay[9]) and np.isfinite(result.delay[11])

    def test_unwrap_phase_removes_jumps(self):
        # an overcoupled bare cavity winds the reflection phase once around
        # the origin, so the wrapped phase jumps by 2pi on resonance; the fd
        # delay must differentiate across the jump, not through it
        overcoupled = SystemParams(0.0, 0.0, 0.0, 10.0, 1.0, 8.0, 0.5)
        grid = DetuningGrid(-200.0, 200.0, 4001)
        drive = DriveField(ratio_delta=0.0)
        fd = group_delay(overcoupled, drive, grid, method="finite-difference")
        assert np.any(np.abs(np.diff(np.angle(fd.t))) > math.pi)
        analytic = group_delay(overcoupled, drive, grid)
        np.testing.assert_allclose(fd.delay, analytic.delay, rtol=1e-3)


class TestFindZeroReflection:
    def test_quadrature_phase_closed_form(self, params):
        # at effective phase 3*pi/2 the root detuning is exactly 0 and the
        # ratio is (kappa_c - 2*kappa_c1)*kappa_m + g^2 over the pump scale
        root = find_zero_reflection(params, 1.5 * math.pi)
        expected = ((113.9 - 2.0 * 21.8) * 1.2 + 7.6**2) / (
            2.0 * 7.6 * math.sqrt(21.8 * 0.6)
        )
        assert root.ratio_delta == pytest.approx(expected, rel=1e-12)
        assert root.detuning == pytest.approx(0.0, abs=1e-12)
        assert root.residual < 1e-13

    def test_reference_destructive_root(self, params):
        root = find_zero_reflection(params, 1.35 * math.pi)
        assert root.ratio_delta == pytest.approx(2.8808843, rel=1e-6)
        assert root.detuning == pytest.approx(1.0055739, rel=1e-6)
        assert root.residual < 1e-13
        # confirm against the model, not the solver's own residual
        drive = DriveField.with_effective_phase(root.ratio_delta, 1.35 * math.pi)
        assert abs(transmission(params, drive, -root.detuning)) < 1e-13

    def test_constructive_phase_root_is_far_out(self, params):
        root = find_zero_reflection(params, 0.35 * math.pi)
        assert root is not None
        assert root.ratio_delta > 100.0
        assert find_zero_reflection(params, 0.35 * math.pi, max_ratio=100.0) is None

    def test_no_pump_coupling_means_no_root(self):
        uncoupled = SystemParams(0.0, 0.0, 0.0, 113.9, 1.2, 21.8, 0.6)
        assert find_zero_reflection(uncoupled, 1.35 * math.pi) is None

    def test_root_past_the_largest_double_is_none(self):
        # a subnormal g makes the root's ratio overflow; it once polished to nan
        device = SystemParams(3.0, -2.0, 2.225073858507203e-309, 113.9, 1.2, 21.8, 0.6)
        assert find_zero_reflection(device, 0.0) is None

    @pytest.mark.parametrize("phase_eff", [math.inf, -math.inf, math.nan])
    def test_non_finite_phase_is_rejected(self, params, phase_eff):
        # inf once failed in math.cos and nan returned None; an uncoupled
        # device, which has no root at any phase, is rejected too
        uncoupled = replace(params, coupling_g=0.0)
        for device in (params, uncoupled):
            with pytest.raises(DomainError, match=f"phase_eff must be finite, got {phase_eff}"):
                find_zero_reflection(device, phase_eff)

    def test_nan_max_ratio_is_rejected(self, params):
        # nan once compared False with every ratio, so the root was returned
        with pytest.raises(DomainError, match="max_ratio must be a number, got nan"):
            find_zero_reflection(params, 1.35 * math.pi, max_ratio=math.nan)
        root = find_zero_reflection(params, 1.35 * math.pi)
        assert find_zero_reflection(params, 1.35 * math.pi, max_ratio=math.inf) == root
        assert find_zero_reflection(params, 1.35 * math.pi, max_ratio=-math.inf) is None

    @given(valid_params(), st.floats(-20.0, 20.0))
    @settings(max_examples=examples(200), deadline=None)
    def test_property_residual_at_every_root(self, params, phase_eff):
        # the worst of 2242 roots probed this way was 4.0e-14
        root = find_zero_reflection(params, phase_eff)
        if root is not None:
            assert root.residual <= 1e-12

    def test_roots_on_random_systems(self, draw_system):
        rng = np.random.default_rng(23)
        found = 0
        for _ in range(25):
            params = draw_system(rng)
            phase_eff = rng.uniform(1.05 * math.pi, 1.95 * math.pi)
            root = find_zero_reflection(params, phase_eff)
            if root is None:
                continue
            found += 1
            assert root.ratio_delta >= 0.0
            assert root.residual < 1e-10
            drive = DriveField.with_effective_phase(root.ratio_delta, phase_eff)
            probe_freq = params.cavity_freq - root.detuning
            assert abs(transmission(params, drive, probe_freq)) < 1e-10
        assert found >= 20  # sin(phase) < 0 guarantees a root almost always


def transition_reference(ratios, delays):
    """detect_abrupt_transition as a loop over adjacent pairs, for finite,
    valid input: the first pair that changes sign with a jump above
    _JUMP_FACTOR times the median jump."""
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


# exact zeros of both signs, small integers (jumps that land exactly on
# _JUMP_FACTOR times the median) and any moderate float
_DELAY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(-40, 40).map(float),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def transition_inputs(draw):
    """Strictly increasing ratios and delays made of constant runs."""
    lengths = st.sampled_from([1, 1, 1, 2, 4])
    runs = draw(st.lists(st.tuples(_DELAY_VALUES, lengths), min_size=3, max_size=30))
    delays = np.array([value for value, count in runs for _ in range(count)])
    size = delays.size - 1
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=size, max_size=size))
    return np.concatenate([[0.0], np.cumsum(steps)]), delays


class TestTransition:
    @given(transition_inputs())
    @example((np.arange(4.0), np.array([1.0, 2.0, 3.0, -7.0])))  # a jump of exactly 10 medians
    @example((np.arange(4.0), np.array([1.0, 2.0, 3.0, -7.5])))
    @example((np.arange(5.0), np.array([-0.0, 5.0, 5.0, 0.0, -3.0])))
    @settings(max_examples=examples(200), deadline=None)
    def test_first_qualifying_pair_matches_the_loop(self, inputs):
        ratios, delays = inputs
        report = detect_abrupt_transition(ratios, delays)
        assert repr(report) == repr(transition_reference(ratios, delays))

    def test_reference_transition_at_the_root(self, params):
        grid = DetuningGrid(-10.0, 10.0, 4001)
        ratios = np.round(np.arange(0.0, 4.0001, 0.05), 10)
        extrema = delay_extremum_vs_ratio(params, 1.35 * math.pi, ratios, grid)
        report = detect_abrupt_transition(ratios, extrema)
        root = find_zero_reflection(params, 1.35 * math.pi)
        assert report is not None
        assert report.jump_sign is TransitionSign.ADVANCE_TO_DELAY
        assert abs(report.critical_ratio - root.ratio_delta) <= 0.05
        assert report.peak_delay > 10.0
        assert report.peak_advance < -5.0

    def test_extremum_at_zero_ratio_is_the_resonance_delay(self, params, drive_off):
        grid = DetuningGrid(-10.0, 10.0, 4001)
        extrema = delay_extremum_vs_ratio(params, 1.35 * math.pi, [0.0], grid)
        assert extrema[0] == pytest.approx(delay_at(params, drive_off, 0.0), rel=1e-9)

    def test_smooth_curve_has_no_transition(self):
        ratios = np.linspace(0.0, 2.0, 21)
        delays = 1.0 + 0.1 * ratios
        assert detect_abrupt_transition(ratios, delays) is None

    def test_synthetic_delay_to_advance_jump(self):
        ratios = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        delays = np.array([1.0, 1.1, 1.2, -5.0, -5.1])
        report = detect_abrupt_transition(ratios, delays)
        assert report is not None
        assert report.jump_sign is TransitionSign.DELAY_TO_ADVANCE
        assert report.critical_ratio == 2.5
        assert report.peak_delay == 1.2
        assert report.peak_advance == -5.1

    def test_validation(self):
        with pytest.raises(DomainError, match="increasing"):
            detect_abrupt_transition([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError, match="3 points"):
            detect_abrupt_transition([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(DomainError, match="equal length"):
            detect_abrupt_transition([0.0, 1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "ratios,delays,message",
        [
            # nan passes the increasing check, since every comparison is False
            ([0.0, 1.0, math.nan], [1.0, 2.0, 3.0], "ratio values must be finite"),
            ([0.0, math.inf, 2.0], [1.0, 2.0, 3.0], "ratio values must be finite"),
            ([0.0, 1.0, 2.0, 3.0], [1.0, 1.1, math.nan, -5.0], "extremal delays must be finite"),
            # an infinite jump made the median infinite, so no flip qualified
            ([0.0, 1.0, 2.0, 3.0], [1.0, 1.1, -math.inf, -5.0], "extremal delays must be finite"),
        ],
    )
    def test_non_finite_inputs_are_rejected(self, ratios, delays, message):
        with pytest.raises(DomainError, match=message):
            detect_abrupt_transition(ratios, delays)


class TestExtremumExactness:
    PHASE = 1.35 * math.pi

    def test_scan_equals_per_ratio_group_delay(self, params):
        grid = DetuningGrid(-10.0, 10.0, 4001)
        ratios = np.round(np.arange(0.0, 4.0001, 0.05), 10)
        result = delay_extremum_vs_ratio(params, self.PHASE, ratios, grid)
        assert np.array_equal(result, extremum_reference(params, self.PHASE, ratios, grid))

    def test_diverged_samples_at_the_root_are_skipped_identically(self, params):
        root = find_zero_reflection(params, self.PHASE)
        # the grid holds the root's detuning exactly, so that sample diverges
        grid = DetuningGrid.from_values(root.detuning + 0.05 * np.arange(-40, 41))
        drive = DriveField.with_effective_phase(root.ratio_delta, self.PHASE)
        assert np.count_nonzero(group_delay(params, drive, grid).diverged) == 1
        ratios = np.array([0.0, root.ratio_delta, 3.5])
        result = delay_extremum_vs_ratio(params, self.PHASE, ratios, grid)
        assert np.array_equal(result, extremum_reference(params, self.PHASE, ratios, grid))
        assert np.all(np.isfinite(result))

    def test_all_diverged_row_raises(self, params):
        root = find_zero_reflection(params, self.PHASE)
        grid = DetuningGrid.from_values([root.detuning, np.nextafter(root.detuning, np.inf)])
        ratios = [1.0, root.ratio_delta]
        with pytest.raises(DomainError, match="all samples diverged"):
            extremum_reference(params, self.PHASE, ratios, grid)
        with pytest.raises(DomainError, match="all samples diverged"):
            delay_extremum_vs_ratio(params, self.PHASE, ratios, grid)

    def test_each_ratio_is_still_validated(self, params):
        grid = DetuningGrid(-10.0, 10.0, 101)
        with pytest.raises(DomainError, match="ratio_delta must be >= 0"):
            delay_extremum_vs_ratio(params, self.PHASE, [0.5, -0.1], grid)
        with pytest.raises(DomainError, match="ratio_delta must be finite"):
            delay_extremum_vs_ratio(params, self.PHASE, [0.5, math.nan], grid)

    @given(
        valid_params(),
        st.floats(-math.pi, math.pi),
        st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
    )
    @settings(max_examples=examples(50), deadline=None)
    def test_property_scan_equals_reference(self, params, phase_eff, ratios):
        grid = DetuningGrid(-10.0, 10.0, 201)
        try:
            expected = extremum_reference(params, phase_eff, ratios, grid)
        except DomainError:
            with pytest.raises(DomainError):
                delay_extremum_vs_ratio(params, phase_eff, ratios, grid)
            return
        result = delay_extremum_vs_ratio(params, phase_eff, ratios, grid)
        np.testing.assert_array_equal(result, expected)


class TestExtremumMask:
    PHASE = 1.35 * math.pi

    def test_argmax_on_a_diverged_sample_builds_the_mask(self, params):
        # at the root the unmasked |delay| peaks on the diverged sample, so
        # the scan must mask and take the argmax again
        root = find_zero_reflection(params, self.PHASE)
        grid = DetuningGrid.from_values(root.detuning + 0.05 * np.arange(-40, 41))
        kernel = _DelayKernel(params, grid.values)
        drive = DriveField.with_effective_phase(root.ratio_delta, self.PHASE)
        delay = kernel(_pump_term(kernel.pump_scale, drive.ratio_delta, drive.effective_phase))
        diverged = kernel.diverged()
        assert diverged[int(np.argmax(np.abs(delay)))] and not diverged.all()
        ratios = [root.ratio_delta]
        result = delay_extremum_vs_ratio(params, self.PHASE, ratios, grid)
        assert np.array_equal(result, extremum_reference(params, self.PHASE, ratios, grid))
        assert np.all(np.isfinite(result))

    def test_bad_phase_and_first_bad_ratio_raise_as_per_drive(self, params):
        grid = DetuningGrid(-10.0, 10.0, 101)
        for ratios, phase in [([0.5, 2e50, -1.0], self.PHASE), ([0.5, math.inf], math.nan)]:
            with pytest.raises(DomainError) as expected:
                extremum_reference(params, phase, ratios, grid)
            with pytest.raises(DomainError, match=re.escape(str(expected.value))):
                delay_extremum_vs_ratio(params, phase, ratios, grid)


class TestExtremumBlocks:
    """The scan takes the ratios in blocks of about _BLOCK_SAMPLES samples;
    every block edge keeps the per-ratio reference's bits."""

    PHASE = 1.35 * math.pi

    @given(
        valid_params(),
        st.floats(-math.pi, math.pi),
        # (grid count, most ratios, half span in MHz): grids too small for
        # the bound, 4001 samples on +-10 MHz and on +-60 MHz, where most
        # chunks are left out, and a grid whose buffers hold one whole-grid
        # ratio
        st.sampled_from(
            [
                (2, 12, 10.0),
                (201, 12, 10.0),
                (4001, 20, 10.0),
                (4001, 20, 60.0),
                (_BLOCK_SAMPLES + 1, 3, 10.0),
            ]
        ),
        # devices and grids scaled by 2^k, as in TestHomogeneity
        st.one_of(st.just(0), st.integers(-600, 150)),
        st.data(),
    )
    @settings(max_examples=examples(30), deadline=None)
    def test_property_blocks_equal_reference(self, params, phase_eff, sizes, k, data):
        count, most, span = sizes
        ratios = data.draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=most))
        params = scaled(params, k)
        grid = DetuningGrid(math.ldexp(-span, k), math.ldexp(span, k), count)
        try:
            expected = extremum_reference(params, phase_eff, ratios, grid)
        except DomainError:
            with pytest.raises(DomainError):
                delay_extremum_vs_ratio(params, phase_eff, ratios, grid)
            return
        np.testing.assert_array_equal(delay_extremum_vs_ratio(params, phase_eff, ratios, grid), expected)

    def test_diverged_picks_inside_blocks(self, params):
        # on a 4001-sample grid holding the root's detuning the buffers take
        # 8 whole-grid ratios, but the bound keeps samples 1536-2304 of every
        # ratio, so all 13 run in one block, the root ratio three times, and
        # its unmasked argmax is the diverged sample;
        # TestExtremumPruning.test_diverged_picks_in_pruned_blocks covers
        # picks in blocks split across the grid
        root = find_zero_reflection(params, self.PHASE)
        grid = DetuningGrid.from_values(root.detuning + 0.005 * np.arange(-2000, 2001))
        assert _BLOCK_SAMPLES // grid.count == 8
        kernel = _DelayKernel(params, grid.values)
        delay = kernel(_pump_term(kernel.pump_scale, root.ratio_delta, self.PHASE))
        assert kernel.diverged()[int(np.argmax(np.abs(delay)))]
        ratios = np.linspace(0.0, 4.0, 13)
        ratios[[3, 5, 10]] = root.ratio_delta
        result = delay_extremum_vs_ratio(params, self.PHASE, ratios, grid)
        assert np.array_equal(result, extremum_reference(params, self.PHASE, ratios, grid))
        assert np.all(np.isfinite(result))


class TestExtremumPruning:
    """chunk_bounds bounds the kernel's own |delay| * divisor on every
    sample of a chunk that does not diverge; the scan leaves samples out
    on that bound alone."""

    PHASE = 1.35 * math.pi

    @given(
        valid_params(),
        st.one_of(st.just(0), st.integers(-600, 150)),
        st.floats(-math.pi, math.pi),
        st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8),
        st.sampled_from([10.0, 60.0]),
    )
    @settings(max_examples=examples(50), deadline=None)
    def test_property_bound_holds(self, params, k, phase_eff, ratios, span):
        grid = DetuningGrid(math.ldexp(-span, k), math.ldexp(span, k), 4001)
        kernel = _DelayKernel(scaled(params, k), grid.values, len(ratios))
        pumps = np.array([_pump_term(kernel.pump_scale, ratio, phase_eff) for ratio in ratios])
        bounds, centres = kernel.chunk_bounds(pumps)
        chunk = np.arange(grid.count) // _CHUNK_SAMPLES
        assert np.array_equal(chunk[centres], np.arange(centres.size))
        delay = kernel(pumps)
        for row in range(len(ratios)):
            kept = ~kernel.diverged(row)
            size = np.abs(delay[row][kept]) * kernel.divisor
            assert np.all(size <= bounds[row][chunk[kept]])

    def test_diverged_picks_in_pruned_blocks(self, params, monkeypatch):
        # on a +-60 MHz grid around the root's detuning the scan runs two
        # blocks, each on a range inside the grid; the root ratio sits in
        # both, and its unmasked argmax is the diverged sample
        root = find_zero_reflection(params, self.PHASE)
        grid = DetuningGrid.from_values(root.detuning + 0.03 * np.arange(-2000, 2001))
        ratios = np.linspace(0.0, 4.0, 81)
        ratios[[10, 40, 70]] = root.ratio_delta
        ranges = []
        call = _DelayKernel.__call__

        def spy(kernel, pump, start=0, stop=None):
            ranges.append((start, stop))
            return call(kernel, pump, start, stop)

        monkeypatch.setattr(_DelayKernel, "__call__", spy)
        result = delay_extremum_vs_ratio(params, self.PHASE, ratios, grid)
        monkeypatch.undo()
        assert len(ranges) >= 2 and all(0 < start < stop < grid.count for start, stop in ranges)
        assert np.array_equal(result, extremum_reference(params, self.PHASE, ratios, grid))
        assert np.all(np.isfinite(result))

    def test_ratio_groups_keep_the_bits(self, params):
        # past _BLOCK_SAMPLES the buffers hold one whole-grid ratio, so the
        # bound runs on groups of _CHUNK_SAMPLES ratios: 130 ratios make two
        grid = DetuningGrid(-10.0, 10.0, _BLOCK_SAMPLES + 1)
        ratios = np.linspace(0.0, 4.0, _CHUNK_SAMPLES + 2)
        result = delay_extremum_vs_ratio(params, self.PHASE, ratios, grid)
        assert np.array_equal(result, extremum_reference(params, self.PHASE, ratios, grid))

    def test_sample_just_above_the_guard_in_a_pruned_range(self, params):
        # 1e-12 MHz from the root |t_p| is about 3e-13, just above the guard:
        # that sample does not diverge and holds the extremum, and a range
        # that starts inside the grid must judge it by its own |den|
        root = find_zero_reflection(params, self.PHASE)
        grid = DetuningGrid.from_values(root.detuning + 1e-12 + 0.03 * np.arange(-2000, 2001))
        trace = group_delay(params, DriveField.with_effective_phase(root.ratio_delta, self.PHASE), grid)
        assert not trace.diverged.any() and abs(trace.t[2000]) < 1e-12
        [extremum] = delay_extremum_vs_ratio(params, self.PHASE, [root.ratio_delta], grid)
        assert extremum == trace.delay[2000]


class TestHomogeneity:
    """Scaling every rate, frequency and detuning by 2**k divides the delay
    by 2**k bit for bit: the kernel's power-of-two rescaling keeps its
    squares clear of underflow and overflow at every k."""

    GRID = DetuningGrid(-10.0, 10.0, 201)
    RATIOS = np.array([0.0, 0.5, 1.5, 3.0])

    def assert_homogeneous(self, params, drive, phase_eff, k):
        grid = DetuningGrid(math.ldexp(self.GRID.start, k), math.ldexp(self.GRID.stop, k), self.GRID.count)
        assert np.array_equal(grid.values, np.ldexp(self.GRID.values, k))
        plain = group_delay(params, drive, self.GRID)
        result = group_delay(scaled(params, k), drive, grid)
        assert np.array_equal(result.delay, np.ldexp(plain.delay, -k))
        assert np.array_equal(result.diverged, plain.diverged)
        assert np.array_equal(result.t, plain.t)
        try:
            extrema = delay_extremum_vs_ratio(params, phase_eff, self.RATIOS, self.GRID)
        except DomainError:
            with pytest.raises(DomainError):
                delay_extremum_vs_ratio(scaled(params, k), phase_eff, self.RATIOS, grid)
            return
        result = delay_extremum_vs_ratio(scaled(params, k), phase_eff, self.RATIOS, grid)
        assert np.array_equal(result, np.ldexp(extrema, -k))

    @pytest.mark.parametrize("k", [-300, -250, -200, -150, -100, -40, 40, 100, 150])
    def test_fixed_device(self, k):
        params = replace(REFERENCE, cavity_freq=3.0, magnon_freq=-2.0)
        drive = DriveField(ratio_delta=1.2, phase_phi=0.35 * math.pi)
        self.assert_homogeneous(params, drive, 1.35 * math.pi, k)

    @given(valid_params(), valid_drives(), st.floats(-math.pi, math.pi), st.integers(-300, 150))
    @settings(max_examples=examples(50), deadline=None)
    def test_property(self, params, drive, phase_eff, k):
        # scaling is exact only for inputs that stay normal doubles
        values = [getattr(params, f.name) for f in fields(params)]
        assume(all(math.ldexp(math.ldexp(v, k), -k) == v for v in values))
        self.assert_homogeneous(params, drive, phase_eff, k)


class TestExactOracle:
    """The analytic delay against an exact rational evaluation of
    -(Im(dnum/num) - Im(dden/den)) / 2pi."""

    @given(valid_params(), valid_drives())
    @settings(max_examples=examples(40), deadline=None)
    def test_property_matches_exact_evaluation(self, params, drive):
        grid = DetuningGrid(-2.0 * params.kappa_c, 2.0 * params.kappa_c, 21)
        result = group_delay(params, drive, grid)
        for detuning, tau in zip(grid.values, result.delay):
            num, den, _, _ = exact_response(params, drive, float(detuning))
            if norm2(num) < Fraction(1e-12) * norm2(den):  # |num| < 1e-6 |den|
                continue
            exact, scale = exact_delay(params, drive, float(detuning))
            assert abs(tau - exact) <= 1e-12 * scale

    def test_guard_at_a_root_sample(self, params):
        phase = 1.35 * math.pi
        root = find_zero_reflection(params, phase)
        drive = DriveField.with_effective_phase(root.ratio_delta, phase)
        grid = DetuningGrid.from_values(root.detuning + 0.01 * np.arange(-10, 11))
        num, den, _, _ = exact_response(params, drive, root.detuning)
        assert norm2(num) < Fraction(1e-13) ** 2 * norm2(den)  # really below the guard
        trace = group_delay(params, drive, grid)
        assert trace.diverged[10] and np.count_nonzero(trace.diverged) == 1
        with pytest.raises(DomainError, match="diverges"):
            delay_at(params, drive, root.detuning)
        [extremum] = delay_extremum_vs_ratio(params, phase, [root.ratio_delta], grid)
        finite = np.delete(trace.delay, 10)
        assert extremum == finite[np.argmax(np.abs(finite))]


def quadratic_roots(b, c):
    """The roots of -x^2 + b*x + c: the larger one without cancellation,
    the other from their product -c, and up to two Newton steps on each,
    each kept only if it lowers |-x^2 + b*x + c| (near a double root the
    slope vanishes and a step can throw the root away)."""

    def value(x):
        return (b - x) * x + c

    half = b / 2.0
    root = cmath.sqrt(half * half + c)
    if (half.conjugate() * root).real < 0.0:
        root = -root
    first = half + root
    roots = [first, -c / first if first != 0.0 else half - root]
    for i, x in enumerate(roots):
        for _ in range(2):
            slope = b - 2.0 * x
            if slope == 0.0:
                break
            step = x - value(x) / slope
            if not abs(value(step)) < abs(value(x)):
                break
            x = step
        roots[i] = x
    return roots


def lorentzian_delay(params, drive, grid, root_ulps):
    """(delay, magnitude, allowance): the delay as a sum of Lorentzians,
    the sum of their magnitudes, and what zeros of num good to root_ulps
    ulps over |r1 - r2| move the sum by, all in us.

    In the core's scaled units x = Delta_p * scale, with a = kappa_c -
    2*kappa_c1, o the mode offset and c the pump term, num and den are
    quadratics in x with leading coefficient -1:

        num = -x^2 + (i*(kappa_m + a) - o)*x + a*kappa_m + g^2 + i*o*a + c
        den = -x^2 + (i*(kappa_m + kappa_c) - o)*x + kappa_c*kappa_m + g^2 + i*o*kappa_c

    so num = -(x - r1)(x - r2), den = -(x - p1)(x - p2), and d arg t_p / dx
    is the sum of Im r/|x - r|^2 over the zeros minus the same over the
    poles.  Read from _Response, the rates are the same numbers at every
    scale 2^k, so the sum is too.  A zero off by e moves its Lorentzian by
    up to about e/|x - r|^2; a double zero gets an infinite allowance."""
    r = _Response(params, grid.values)
    a = r.kappa_c - 2.0 * r.kappa_c1
    g2 = r.g * r.g
    c = _drive_coefficient(r.pump_scale, drive)
    zeros = quadratic_roots(1j * (r.kappa_m + a) - r.offset, a * r.kappa_m + g2 + 1j * r.offset * a + c)
    poles = quadratic_roots(
        1j * (r.kappa_m + r.kappa_c) - r.offset,
        r.kappa_c * r.kappa_m + g2 + 1j * r.offset * r.kappa_c,
    )
    x = grid.values * r.scale
    gap = abs(zeros[0] - zeros[1])
    error = root_ulps * 2.0**-53 / gap if gap else math.inf
    to_us = r.scale / (2.0 * math.pi)
    # a sample on a zero, or next to one, may divide by 0 or overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = [z.imag / np.abs(x - z) ** 2 for z in zeros]
        terms += [-p.imag / np.abs(x - p) ** 2 for p in poles]
        allowance = sum(error / np.abs(x - z) ** 2 for z in zeros)
        return -to_us * sum(terms), to_us * sum(np.abs(term) for term in terms), to_us * allowance


class TestLorentzianSum:
    """group_delay against the delay as a sum of Lorentzians, on the
    samples it does not mark diverged.

    The tolerance is relative to the largest magnitude of the sum's terms
    on those samples (the sum of |Lorentzians|, at least |delay|), not to
    the largest |delay|: where a zero nearly meets a pole, as both do at
    i*kappa_m when g = 0, the delay is small against each term, and
    group_delay is itself exact only relative to its terms (the scale
    TestExactOracle uses).  On g = 0, kappa_m1 = kappa_m it is 1.4e-12 of
    the largest |delay| off an exact evaluation, and the sum 2.2e-13.

    Measured first, on 24000 draws of the strategy's ranges (half with a
    zero moved near the axis, and g = 0, kappa_c1 = kappa_c, kappa_m1 =
    kappa_m, no mode offset or no pump among them), k in [-600, 150] and
    +-60 * 2^k MHz grids of 241 samples.  With every zero of num 1e-3 or
    more from the real axis (in the scaled units, where the largest rate or
    detuning is below 1) the worst deviation was 2.6e-14 of that scale:
    RTOL.

    Samples next to a zero near the axis get a separate allowance on top
    of RTOL, which elsewhere is negligible.  Each root is good to about an ulp over |r1 - r2| (the
    coefficients are below about 4), so a zero near the axis, whose
    Lorentzian is narrow, moves the sum by about that over |x - r|^2; and
    group_delay, whose num = base + pump rounds the same way, is no better
    there.  On a sample 1.2e-6 from a zero on the axis (|t_p| about 2e-6,
    far above ZERO_GUARD) group_delay was 6.6e-7 of the scale off an exact
    evaluation and the sum 2.4e-6.  The worst deviation beyond RTOL took
    1.4 ulps of that allowance: ROOT_ULPS."""

    GRID = DetuningGrid(-60.0, 60.0, 241)
    RTOL = 1e-12
    ROOT_ULPS = 16.0

    def assert_matches(self, params, drive, k):
        params = scaled(params, k)
        grid = DetuningGrid(math.ldexp(self.GRID.start, k), math.ldexp(self.GRID.stop, k), self.GRID.count)
        result = group_delay(params, drive, grid)
        kept = ~result.diverged
        if not kept.any():
            return
        reference, magnitude, allowance = lorentzian_delay(params, drive, grid, self.ROOT_ULPS)
        deviation = np.abs(reference[kept] - result.delay[kept])
        bound = self.RTOL * np.max(magnitude[kept]) + allowance[kept]
        assert np.all(deviation <= bound), np.max(deviation / bound)

    @pytest.mark.parametrize("k", [-600, -40, 0, 150])
    def test_reference_device_at_its_zero(self, params, k):
        # the zero of num on the axis at delta*, and just off it either side
        phase = 1.35 * math.pi
        root = find_zero_reflection(params, phase)
        for nudge in (0.0, 1e-9, -1e-4):
            drive = DriveField.with_effective_phase(root.ratio_delta * (1.0 + nudge), phase)
            self.assert_matches(params, drive, k)

    @given(
        valid_params(),
        valid_drives(),
        st.integers(-600, 150),
        st.one_of(st.none(), st.floats(-1e-3, 1e-3)),
    )
    @example(
        params=SystemParams(0.0, 12.0, 2.603837642416082e-149, 1.0, 1.0, 0.5, 0.015625),
        drive=DriveField(ratio_delta=1.0, phase_phi=0.0, phase_offset=0.0),
        k=-527,
        nudge=None,
    )
    @settings(max_examples=examples(100), deadline=None)
    def test_property(self, params, drive, k, nudge):
        # with a nudge, the drive moves to the zero's ratio times (1 + nudge)
        # at its own phase, which puts a zero of num near the axis.  In the
        # example the delay of the diverged sample at 0 passes the largest
        # double as it is scaled back, which once warned of an overflow.
        if nudge is not None:
            zero = find_zero_reflection(params, drive.effective_phase)
            if zero is not None and zero.ratio_delta * (1.0 + nudge) <= MAX_MAGNITUDE:
                ratio = zero.ratio_delta * (1.0 + nudge)
                drive = DriveField.with_effective_phase(ratio, drive.effective_phase)
        self.assert_matches(params, drive, k)


class TestUnderflowingRates:
    """Rates and detunings near 1e-170 MHz: |den| ~ 1e-340 underflows to 0,
    so the plain complex form printed nan; the rescaled kernel is exact."""

    PARAMS = SystemParams(0.0, 0.0, 1e-170, 1e-169, 1e-170, 3e-170, 5e-171)
    GRID = DetuningGrid(-1e-169, 1e-169, 41)
    DRIVE = DriveField(ratio_delta=1.0)

    def test_group_delay_matches_exact_evaluation(self):
        result = group_delay(self.PARAMS, self.DRIVE, self.GRID)
        assert not np.any(result.diverged)
        assert np.all(np.isfinite(result.t))
        # the float pump term underflows at 1e-170, so evaluate exactly on
        # the device scaled by 2**560 and scale the delay back
        lifted = scaled(self.PARAMS, 560)
        for detuning, tau in zip(self.GRID.values, result.delay):
            exact, _ = exact_delay(lifted, self.DRIVE, math.ldexp(detuning, 560))
            assert tau == pytest.approx(math.ldexp(exact, 560), rel=1e-12)
        fd = group_delay(self.PARAMS, self.DRIVE, self.GRID, method="finite-difference")
        assert np.all(np.isfinite(fd.delay))

    def test_delay_at_and_scan_agree_with_group_delay(self):
        result = group_delay(self.PARAMS, self.DRIVE, self.GRID)
        assert delay_at(self.PARAMS, self.DRIVE, self.GRID.values[20]) == result.delay[20]
        extrema = delay_extremum_vs_ratio(self.PARAMS, self.DRIVE.effective_phase, [0.0, 1.0], self.GRID)
        assert np.all(np.isfinite(extrema))
        assert extrema[1] == result.delay[np.argmax(np.abs(result.delay))]

"""Group delay, zero-reflection roots, and the advance/delay transition.

The independent oracle here is a five-point finite-difference derivative of
the closed-form reflection phase, computed inline; the analytic route must
match it, and both module methods must agree on whole traces.
"""

import cmath
import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE, valid_drives, valid_params
from magpol.delay import (
    DelayTrace,
    TransitionSign,
    delay_at,
    delay_extremum_vs_ratio,
    detect_abrupt_transition,
    find_zero_reflection,
    group_delay,
    unwrap_phase,
)
from magpol.errors import DomainError
from magpol.model import DriveField, SystemParams, transmission
from magpol.spectra import DetuningGrid


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

    def test_unknown_method_rejected(self, params, drive_off):
        with pytest.raises(DomainError, match="method"):
            group_delay(params, drive_off, DetuningGrid(-1.0, 1.0, 11), method="spline")

    def test_trace_fields_are_readonly_and_sized(self, params, drive_off):
        grid = DetuningGrid(-1.0, 1.0, 11)
        result = group_delay(params, drive_off, grid)
        assert isinstance(result, DelayTrace)
        for name in ("t", "unwrapped_phase", "delay", "diverged"):
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

    @given(
        st.lists(
            st.one_of(
                st.floats(-20.0, 20.0),
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([math.pi, -math.pi, 2.0 * math.pi, 0.0, -0.0, math.nan, math.inf]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_unwrap_phase_is_bitwise_np_unwrap(self, values):
        raw = np.array(values, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            expected, result = np.unwrap(raw), unwrap_phase(raw)
        assert np.array_equal(result, expected, equal_nan=True)
        assert np.array_equal(np.signbit(result), np.signbit(expected))

    def test_unwrap_phase_removes_jumps(self):
        raw = np.angle(np.exp(1j * np.linspace(0.0, 8.0 * math.pi, 200)))
        unwrapped = unwrap_phase(raw)
        assert np.all(np.abs(np.diff(unwrapped)) < math.pi)
        assert unwrapped[-1] == pytest.approx(8.0 * math.pi, rel=1e-12)


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


class TestTransition:
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
    @settings(max_examples=50, deadline=None)
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
    @settings(max_examples=50, deadline=None)
    def test_property(self, params, drive, phase_eff, k):
        # scaling is exact only for inputs that stay normal doubles
        values = [getattr(params, f.name) for f in fields(params)]
        assume(all(math.ldexp(math.ldexp(v, k), -k) == v for v in values))
        self.assert_homogeneous(params, drive, phase_eff, k)


class TestExactOracle:
    """The analytic delay against an exact rational evaluation of
    -(Im(dnum/num) - Im(dden/den)) / 2pi."""

    @given(valid_params(), valid_drives())
    @settings(max_examples=40, deadline=None)
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

"""Closed-form model: validation, frozen resonance values,
and exact homogeneity of every response path.

The frozen numbers below are computed from independent arithmetic on the
published rates (written out inline), not read back from the implementation.
"""

import cmath
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import examples, valid_drives, valid_params
from magpol.delay import find_zero_reflection
from magpol.errors import DomainError
from magpol.model import (
    MAX_MAGNITUDE,
    DriveField,
    SystemParams,
    output_field,
    transmission,
)
from magpol.oracle import integrate_to_steady
from magpol.spectra import DetuningGrid, classify_regime, trace

# reference-device arithmetic, spelled out once
_DEN0 = 113.9 * 1.2 + 7.6**2  # resonance denominator 194.44
_T_PROBE0 = 1.0 - 2.0 * 21.8 * 1.2 / _DEN0  # 0.730920
_PUMP_COEF = 2.0 * 7.6 * math.sqrt(21.8 * 0.6) / _DEN0  # 0.282723


class TestSystemParams:
    def test_feature_width(self, params):
        assert params.feature_width() == pytest.approx(1.2 + 7.6**2 / 113.9)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("kappa_c", 0.0),
            ("kappa_c", -1.0),
            ("kappa_m", 0.0),
            ("kappa_c1", -0.5),
            ("kappa_m1", 0.0),
        ],
    )
    def test_rates_must_be_positive(self, params, field, value):
        with pytest.raises(DomainError, match=field):
            replace(params, **{field: value})

    def test_negative_coupling_rejected(self, params):
        with pytest.raises(DomainError, match="coupling_g"):
            replace(params, coupling_g=-1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("coupling_g", math.nan),
            ("cavity_freq", math.nan),
            ("magnon_freq", math.inf),
            ("kappa_c", math.inf),
            ("kappa_m", -math.inf),
            ("kappa_c1", math.nan),
            ("kappa_m1", math.inf),
        ],
    )
    def test_non_finite_fields_rejected(self, params, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            replace(params, **{field: value})

    @pytest.mark.parametrize("field", [f.name for f in fields(SystemParams)])
    def test_magnitudes_are_capped(self, params, field):
        with pytest.raises(DomainError, match=f"{field} must be at most"):
            replace(params, **{field: 2.0 * MAX_MAGNITUDE})

    def test_external_rate_cannot_exceed_total(self, params):
        with pytest.raises(DomainError, match="kappa_c1"):
            replace(params, kappa_c1=200.0)
        with pytest.raises(DomainError, match="kappa_m1"):
            replace(params, kappa_m1=1.3)


class TestDriveField:
    def test_defaults(self):
        drive = DriveField(ratio_delta=1.0)
        assert drive.phase_phi == 0.0
        assert drive.phase_offset == math.pi
        assert drive.probe_amp == 1.0

    def test_negative_ratio_rejected(self):
        with pytest.raises(DomainError, match="ratio_delta"):
            DriveField(ratio_delta=-0.1)

    def test_negative_probe_rejected(self):
        with pytest.raises(DomainError, match="probe_amp"):
            DriveField(ratio_delta=0.0, probe_amp=-1.0)

    @pytest.mark.parametrize("field", ["ratio_delta", "phase_phi", "phase_offset", "probe_amp"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            replace(DriveField(ratio_delta=1.0), **{field: value})

    def test_ratio_magnitude_is_capped(self):
        # keeps the pump coefficient 2*g*sqrt(kappa_c1*kappa_m1)*delta finite
        DriveField(ratio_delta=MAX_MAGNITUDE)
        with pytest.raises(DomainError, match="ratio_delta must be at most"):
            DriveField(ratio_delta=2.0 * MAX_MAGNITUDE)

    def test_overflowing_phase_sum_rejected(self):
        # each phase is finite, but their sum is not, and it has no remainder
        with pytest.raises(DomainError, match="phase_phi \\+ phase_offset must be finite"):
            DriveField(ratio_delta=1.0, phase_phi=1e308, phase_offset=1.5e308)

    def test_effective_phase_reduces_to_principal_range(self):
        drive = DriveField(ratio_delta=1.0, phase_phi=0.3)
        assert drive.effective_phase == math.remainder(0.3 + math.pi, math.tau)
        assert -math.pi < drive.effective_phase <= math.pi

    def test_full_turn_offset_is_exactly_periodic(self):
        # with a representable sum the reduction is exact, not just close
        base = DriveField(ratio_delta=1.0, phase_phi=0.0, phase_offset=0.0)
        turned = DriveField(ratio_delta=1.0, phase_phi=0.0, phase_offset=math.tau)
        assert turned.effective_phase == base.effective_phase == 0.0
        up = DriveField(ratio_delta=1.0, phase_phi=1.5 * math.tau, phase_offset=0.0)
        down = DriveField(ratio_delta=1.0, phase_phi=-0.5 * math.tau, phase_offset=0.0)
        assert up.effective_phase == down.effective_phase

    def test_phases_stored_unreduced(self):
        drive = DriveField(ratio_delta=1.0, phase_phi=7.0 * math.pi)
        assert drive.phase_phi == 7.0 * math.pi

    def test_with_effective_phase(self):
        drive = DriveField.with_effective_phase(2.0, 1.5)
        assert drive.phase_offset == 0.0
        assert drive.effective_phase == pytest.approx(1.5, abs=1e-15)

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=examples(50))
    def test_generic_two_pi_shift_matches_to_rounding(self, phi):
        base = DriveField(ratio_delta=1.0, phase_phi=phi, phase_offset=0.0)
        shifted = DriveField(ratio_delta=1.0, phase_phi=phi + math.tau, phase_offset=0.0)
        assert shifted.effective_phase == pytest.approx(base.effective_phase, abs=2e-14)


class TestSteadyState:
    """The time-domain steady state and the closed form: the oracle's
    amplitudes, within its 1e-8 relative accuracy."""

    def test_frozen_resonant_amplitudes(self, params, drive_off):
        # <a> = sqrt(2*kappa_c1)*kappa_m / den, <m> = -i*g*sqrt(2*kappa_c1) / den
        amps = integrate_to_steady(params, drive_off, 0.0)
        expected_a = math.sqrt(2.0 * 21.8) * 1.2 / _DEN0
        expected_m = -1j * 7.6 * math.sqrt(2.0 * 21.8) / _DEN0
        assert amps.cavity_amp == pytest.approx(expected_a, rel=1e-8)
        assert amps.cavity_amp == pytest.approx(0.04075106, abs=1e-8)
        assert amps.magnon_amp == pytest.approx(expected_m, rel=1e-8)

    def test_zero_drive_is_dark(self, params):
        amps = integrate_to_steady(params, DriveField(ratio_delta=0.0, probe_amp=0.0), 3.0)
        assert amps.cavity_amp == 0.0
        assert amps.magnon_amp == 0.0

    def test_consistent_with_transmission(self, params):
        drive = DriveField(ratio_delta=1.4, phase_phi=0.7)
        for detuning in (-20.0, 0.0, 3.5):
            amps = integrate_to_steady(params, drive, params.cavity_freq - detuning)
            via_fields = output_field(params, amps.cavity_amp, drive.probe_amp)
            direct = transmission(params, drive, params.cavity_freq - detuning)
            assert via_fields == pytest.approx(direct, rel=1e-8)


def _pathways(params, drive, probe_freq):
    """(t_probe, t_pump) from the module docstring's formulas, inline."""
    zc = 1j * (params.cavity_freq - probe_freq) + params.kappa_c
    zm = 1j * (params.magnon_freq - probe_freq) + params.kappa_m
    den = zc * zm + params.coupling_g**2
    pump = 2.0 * params.coupling_g * math.sqrt(params.kappa_c1 * params.kappa_m1)
    t_pump = 1j * pump * drive.ratio_delta * cmath.exp(-1j * drive.effective_phase) / den
    return 1.0 - 2.0 * params.kappa_c1 * zm / den, t_pump


class TestTransmission:
    def test_frozen_resonance_parts(self, params):
        drive = DriveField(ratio_delta=1.0, phase_phi=0.0, phase_offset=0.0)
        t_probe = transmission(params, replace(drive, ratio_delta=0.0), 0.0)
        t_pump = transmission(params, drive, 0.0) - t_probe
        assert t_probe == pytest.approx(_T_PROBE0, rel=1e-12)
        assert t_probe == pytest.approx(0.73092, abs=1e-5)
        assert t_pump == pytest.approx(1j * _PUMP_COEF, rel=1e-12)
        assert t_pump == pytest.approx(0.28272j, abs=1e-5)

    def test_total_is_sum_of_parts(self, params):
        drive = DriveField(ratio_delta=0.8, phase_phi=1.1)
        shifted = replace(params, cavity_freq=3.0, magnon_freq=-2.0)
        for device in (params, shifted):
            for detuning in (-7.0, 0.0, 2.2, 40.0):
                probe_freq = device.cavity_freq - detuning
                t_probe, t_pump = _pathways(device, drive, probe_freq)
                assert transmission(device, drive, probe_freq) == pytest.approx(
                    t_probe + t_pump, rel=1e-14
                )

    def test_pump_part_is_linear_in_ratio(self, params):
        # t(delta) - t(0) is the pump pathway alone
        base = DriveField(ratio_delta=0.7, phase_phi=0.9)
        t0 = transmission(params, replace(base, ratio_delta=0.0), 5.0)
        t_pump = transmission(params, base, 5.0) - t0
        t_pump2 = transmission(params, replace(base, ratio_delta=1.4), 5.0) - t0
        assert t_pump2 == pytest.approx(2.0 * t_pump, rel=1e-13)

    def test_probe_part_ignores_pump_settings(self, params):
        a = DriveField(ratio_delta=0.0)
        b = DriveField(ratio_delta=0.0, phase_phi=1.3, probe_amp=2.5)
        assert transmission(params, a, 4.0) == transmission(params, b, 4.0)

    def test_zero_probe_rejected(self, params):
        with pytest.raises(DomainError, match="probe_amp"):
            transmission(params, DriveField(ratio_delta=1.0, probe_amp=0.0), 0.0)

    @pytest.mark.parametrize("probe_freq", [math.inf, -math.inf, math.nan])
    def test_non_finite_probe_rejected(self, params, probe_freq):
        with pytest.raises(DomainError, match="probe_freq must be finite"):
            transmission(params, DriveField(ratio_delta=1.0), probe_freq)

    def test_phase_enters_through_exponential(self, params):
        # rotating the pump phase rotates only the pump term
        t_probe = transmission(params, DriveField(ratio_delta=0.0), 2.0)
        drive0 = DriveField.with_effective_phase(1.0, 0.0)
        drive1 = DriveField.with_effective_phase(1.0, 0.4)
        t0 = transmission(params, drive0, 2.0) - t_probe
        t1 = transmission(params, drive1, 2.0) - t_probe
        assert t1 == pytest.approx(t0 * cmath.exp(-0.4j), rel=1e-12)

    @pytest.mark.parametrize(
        "device,probe_freq",
        [
            # with negligible damping, den = (i*d)^2 + g^2 nearly vanishes at d = +-g
            (SystemParams(0.0, 0.0, 1.0, 1e-16, 1e-16, 1e-17, 1e-17), -1.0),
            # |den| = 1e-20 at resonance, where t_p = 1 - 2*eta_c = 0
            (SystemParams(0.0, 0.0, 0.0, 1e-10, 1e-10, 5e-11, 5e-11), 0.0),
        ],
    )
    def test_near_singular_denominator_is_finite(self, device, probe_freq):
        # Re den >= kappa_c*kappa_m wherever Im den = 0, so den never vanishes
        drive = DriveField(ratio_delta=0.5, phase_phi=0.3)
        value = transmission(device, drive, probe_freq)
        assert cmath.isfinite(value)
        detuning = device.cavity_freq - probe_freq
        grid = DetuningGrid.from_values([detuning - 1.0, detuning, detuning + 1.0])
        assert value == pytest.approx(trace(device, drive, grid).t[1], rel=1e-12, abs=1e-15)


@given(valid_params(), st.floats(-80.0, 80.0))
@settings(max_examples=examples(100))
def test_pump_off_reflection_is_passive(params, delta):
    # without the pump the one-port is passive: |t_p| <= 1
    value = transmission(params, DriveField(ratio_delta=0.0), params.cavity_freq - delta)
    assert abs(value) <= 1.0 + 1e-12


@given(
    valid_params(),
    valid_drives(),
    st.floats(-1e3, 0.0, exclude_max=True),
    st.floats(1e-3, 2e3),
    st.integers(2, 401),
)
@settings(max_examples=examples(100), deadline=None)
def test_pump_off_trace_is_passive(params, drive, start, width, count):
    # |t_p| <= 1 exactly; the computed trace may exceed 1 only by rounding.
    # The allowance is the transmission property's 1e-12, far above the
    # largest excess seen (3 ulp, 6.7e-16, over 3000 examples) and far
    # below any gain a wrong loss term would give
    grid = DetuningGrid(start, start + width, count)
    spectrum = trace(params, replace(drive, ratio_delta=0.0), grid)
    assert np.max(spectrum.magnitude) <= 1.0 + 1e-12


def scaled(params, k):
    """params with every rate and frequency multiplied by 2**k."""
    return replace(params, **{f.name: math.ldexp(getattr(params, f.name), k) for f in fields(params)})


class TestHomogeneity:
    """Scaling every rate, frequency and detuning by 2**k changes no
    dimensionless answer by a single bit: every response path builds its
    terms in the model's power-of-two-scaled core."""

    GRID = DetuningGrid(-60.0, 60.0, 121)

    @staticmethod
    def scaled_grid(grid, k):
        result = DetuningGrid(math.ldexp(grid.start, k), math.ldexp(grid.stop, k), grid.count)
        assert np.array_equal(result.values, np.ldexp(grid.values, k))
        return result

    def assert_homogeneous(self, params, drive, phase_eff, k):
        lifted = scaled(params, k)
        grid = self.scaled_grid(self.GRID, k)
        assert np.array_equal(trace(lifted, drive, grid).t, trace(params, drive, self.GRID).t)
        for detuning in (-60.0, -1.5, 0.0, 0.25, 33.0):
            probe_freq = params.cavity_freq - detuning
            assert transmission(lifted, drive, math.ldexp(probe_freq, k)) == transmission(
                params, drive, probe_freq
            )
        root = find_zero_reflection(params, phase_eff)
        lifted_root = find_zero_reflection(lifted, phase_eff)
        if root is None:
            assert lifted_root is None
        else:
            assert lifted_root.ratio_delta == root.ratio_delta
            assert lifted_root.residual == root.residual
            assert lifted_root.detuning == math.ldexp(root.detuning, k)
        # a grid wide enough for the regime label's feature window
        span = math.ldexp(1.0, math.frexp(7.0 * params.feature_width())[1])
        wide = DetuningGrid(-span, span, 241)
        assert classify_regime(lifted, drive, grid=self.scaled_grid(wide, k)) is classify_regime(
            params, drive, grid=wide
        )

    @pytest.mark.parametrize("k", [-600, -560, -300, -269, -268, -100, 40, 150])
    def test_fixed_device(self, params, k):
        device = replace(params, cavity_freq=3.0, magnon_freq=-2.0)
        drive = DriveField(ratio_delta=1.2, phase_phi=0.35 * math.pi)
        self.assert_homogeneous(device, drive, 1.35 * math.pi, k)

    @given(valid_params(), valid_drives(), st.floats(-math.pi, math.pi), st.integers(-600, 150))
    @settings(max_examples=examples(50), deadline=None)
    def test_property(self, params, drive, phase_eff, k):
        # scaling is exact only for inputs that stay normal doubles
        values = [getattr(params, f.name) for f in fields(params)]
        assume(all(math.ldexp(math.ldexp(v, k), -k) == v for v in values))
        self.assert_homogeneous(params, drive, phase_eff, k)

"""Closed-form model: validation, coupling regimes, and frozen resonance values.

The frozen numbers below are computed from independent arithmetic on the
published rates (written out inline), not read back from the implementation.
"""

import cmath
import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE
from magpol.errors import DomainError, SingularityError
from magpol.model import (
    MAX_MAGNITUDE,
    CouplingRegime,
    DriveField,
    SystemParams,
    classify_coupling,
    output_field,
    steady_state,
    transmission,
    transmission_parts,
)

# reference-device arithmetic, spelled out once
_DEN0 = 113.9 * 1.2 + 7.6**2  # resonance denominator 194.44
_T_PROBE0 = 1.0 - 2.0 * 21.8 * 1.2 / _DEN0  # 0.730920
_PUMP_COEF = 2.0 * 7.6 * math.sqrt(21.8 * 0.6) / _DEN0  # 0.282723


class TestClassifyCoupling:
    def test_under_critical_over(self):
        assert classify_coupling(0.2) is CouplingRegime.UNDERCOUPLED
        assert classify_coupling(0.5) is CouplingRegime.CRITICAL
        assert classify_coupling(0.8) is CouplingRegime.OVERCOUPLED
        assert classify_coupling(1.0) is CouplingRegime.OVERCOUPLED

    def test_critical_tolerance_band(self):
        assert classify_coupling(0.5 + 1e-13) is CouplingRegime.CRITICAL
        assert classify_coupling(0.5 + 1e-11) is CouplingRegime.OVERCOUPLED

    @pytest.mark.parametrize("eta", [0.0, -0.1, 1.0000001, 2.0])
    def test_out_of_range(self, eta):
        with pytest.raises(DomainError):
            classify_coupling(eta)


class TestSystemParams:
    def test_reference_coupling_ratios(self, params):
        assert params.eta_c == pytest.approx(21.8 / 113.9, rel=1e-15)
        assert params.eta_m == 0.5
        assert params.cavity_regime is CouplingRegime.UNDERCOUPLED
        assert params.magnon_regime is CouplingRegime.CRITICAL

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
    @settings(max_examples=50)
    def test_generic_two_pi_shift_matches_to_rounding(self, phi):
        base = DriveField(ratio_delta=1.0, phase_phi=phi, phase_offset=0.0)
        shifted = DriveField(ratio_delta=1.0, phase_phi=phi + math.tau, phase_offset=0.0)
        assert shifted.effective_phase == pytest.approx(base.effective_phase, abs=2e-14)


class TestSteadyState:
    def test_frozen_resonant_amplitudes(self, params, drive_off):
        # <a> = sqrt(2*kappa_c1)*kappa_m / den, <m> = -i*g*sqrt(2*kappa_c1) / den
        amps = steady_state(params, drive_off, 0.0)
        expected_a = math.sqrt(2.0 * 21.8) * 1.2 / _DEN0
        expected_m = -1j * 7.6 * math.sqrt(2.0 * 21.8) / _DEN0
        assert amps.cavity_amp == pytest.approx(expected_a, rel=1e-12)
        assert amps.cavity_amp == pytest.approx(0.04075106, abs=1e-8)
        assert amps.magnon_amp == pytest.approx(expected_m, rel=1e-12)

    def test_zero_drive_is_dark(self, params):
        amps = steady_state(params, DriveField(ratio_delta=0.0, probe_amp=0.0), 3.0)
        assert amps.cavity_amp == 0.0
        assert amps.magnon_amp == 0.0

    def test_consistent_with_transmission(self, params):
        drive = DriveField(ratio_delta=1.4, phase_phi=0.7)
        for detuning in (-20.0, 0.0, 3.5):
            amps = steady_state(params, drive, params.cavity_freq - detuning)
            via_fields = output_field(params, amps.cavity_amp, drive.probe_amp)
            direct = transmission(params, drive, params.cavity_freq - detuning)
            assert via_fields == pytest.approx(direct, rel=1e-12)

    def test_singular_denominator_raises(self):
        # with negligible damping, den = (i*d)^2 + g^2 vanishes at d = +-g
        params = SystemParams(
            cavity_freq=0.0,
            magnon_freq=0.0,
            coupling_g=1.0,
            kappa_c=1e-16,
            kappa_m=1e-16,
            kappa_c1=1e-17,
            kappa_m1=1e-17,
        )
        with pytest.raises(SingularityError):
            steady_state(params, DriveField(ratio_delta=0.0), -1.0)


class TestTransmission:
    def test_frozen_resonance_parts(self, params):
        drive = DriveField(ratio_delta=1.0, phase_phi=0.0, phase_offset=0.0)
        t_probe, t_pump = transmission_parts(params, drive, 0.0)
        assert t_probe == pytest.approx(_T_PROBE0, rel=1e-12)
        assert t_probe == pytest.approx(0.73092, abs=1e-5)
        assert t_pump == pytest.approx(1j * _PUMP_COEF, rel=1e-12)
        assert t_pump == pytest.approx(0.28272j, abs=1e-5)

    def test_total_is_sum_of_parts(self, params):
        drive = DriveField(ratio_delta=0.8, phase_phi=1.1)
        for detuning in (-7.0, 0.0, 2.2, 40.0):
            t_probe, t_pump = transmission_parts(
                params, drive, params.cavity_freq - detuning
            )
            assert transmission(params, drive, params.cavity_freq - detuning) == (
                t_probe + t_pump
            )

    def test_pump_part_scales_exactly_with_ratio_doubling(self, params):
        base = DriveField(ratio_delta=0.7, phase_phi=0.9)
        doubled = replace(base, ratio_delta=1.4)
        _, t_pump = transmission_parts(params, base, 5.0)
        _, t_pump2 = transmission_parts(params, doubled, 5.0)
        assert t_pump2 == 2.0 * t_pump

    def test_probe_part_ignores_pump_settings(self, params):
        a = DriveField(ratio_delta=0.0)
        b = DriveField(ratio_delta=2.5, phase_phi=1.3)
        ta, _ = transmission_parts(params, a, 4.0)
        tb, _ = transmission_parts(params, b, 4.0)
        assert ta == tb

    def test_zero_probe_rejected(self, params):
        with pytest.raises(DomainError, match="probe_amp"):
            transmission(params, DriveField(ratio_delta=1.0, probe_amp=0.0), 0.0)

    def test_phase_enters_through_exponential(self, params):
        # rotating the pump phase rotates only the pump term
        drive0 = DriveField.with_effective_phase(1.0, 0.0)
        drive1 = DriveField.with_effective_phase(1.0, 0.4)
        _, t0 = transmission_parts(params, drive0, 2.0)
        _, t1 = transmission_parts(params, drive1, 2.0)
        assert t1 == pytest.approx(t0 * cmath.exp(-0.4j), rel=1e-12)


@given(st.floats(-80.0, 80.0))
@settings(max_examples=100)
def test_pump_off_reflection_is_passive(delta):
    # without the pump the one-port is passive: |t_p| <= 1
    value = transmission(
        REFERENCE, DriveField(ratio_delta=0.0), REFERENCE.cavity_freq - delta
    )
    assert abs(value) <= 1.0 + 1e-12

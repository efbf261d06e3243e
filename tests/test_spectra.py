"""Grids, traces, sweeps, baseline/extremum helpers, and regime labels.

Frozen magnitudes (baseline levels, the ideal transparency peak) come from
the verified closed-form evaluation at the published rates.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import valid_drives, valid_params
from magpol.errors import DomainError
from magpol.model import (
    MAX_MAGNITUDE,
    DriveField,
    SystemParams,
    transmission,
    transmission_parts,
)
from magpol.spectra import (
    MAX_GRID_COUNT,
    DetuningGrid,
    RegimeLabel,
    RegimeThresholds,
    SpectrumTrace,
    SweepAxis,
    baseline_level,
    classify_regime,
    default_grid,
    extremum_near_resonance,
    sweep,
    to_db,
    trace,
)


class TestDetuningGrid:
    def test_spacing_and_values(self):
        grid = DetuningGrid(-1.0, 1.0, 5)
        assert grid.spacing == 0.5
        np.testing.assert_array_equal(grid.values, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_values_are_readonly(self):
        grid = DetuningGrid(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            grid.values[0] = 7.0

    def test_default_grid(self):
        grid = default_grid()
        assert (grid.start, grid.stop, grid.count) == (-60.0, 60.0, 1201)

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            DetuningGrid(0.0, 1.0, 1)
        with pytest.raises(DomainError):
            DetuningGrid(1.0, 1.0, 5)
        with pytest.raises(DomainError):
            DetuningGrid(2.0, -2.0, 5)

    @pytest.mark.parametrize(
        "start,stop,name",
        [(-1.0, math.inf, "stop"), (math.nan, 1.0, "start"), (-math.inf, 1.0, "start")],
    )
    def test_rejects_non_finite_bounds(self, start, stop, name):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            DetuningGrid(start, stop, 5)

    @pytest.mark.parametrize(
        "start,stop,name",
        [(-2.0 * MAX_MAGNITUDE, 1.0, "start"), (-1.0, 2.0 * MAX_MAGNITUDE, "stop")],
    )
    def test_bounds_are_capped(self, start, stop, name):
        with pytest.raises(DomainError, match=f"{name} must be at most"):
            DetuningGrid(start, stop, 5)

    def test_count_is_capped_before_allocation(self):
        with pytest.raises(DomainError, match=f"at most {MAX_GRID_COUNT}"):
            DetuningGrid(-1.0, 1.0, MAX_GRID_COUNT + 1)

    def test_from_values_round_trip(self):
        original = DetuningGrid(-3.0, 3.0, 61)
        rebuilt = DetuningGrid.from_values(original.values)
        np.testing.assert_array_equal(rebuilt.values, original.values)
        assert rebuilt == original

    def test_from_values_rejects_non_uniform(self):
        with pytest.raises(DomainError, match="uniform"):
            DetuningGrid.from_values([0.0, 1.0, 2.5])

    def test_from_values_rejects_decreasing(self):
        with pytest.raises(DomainError, match="increasing"):
            DetuningGrid.from_values([0.0, 1.0, 0.5])


class TestToDb:
    def test_values(self):
        assert to_db(1.0) == 0.0
        assert to_db(10.0) == pytest.approx(20.0)
        assert to_db(0.01) == pytest.approx(-40.0)
        assert to_db(0.0) == -math.inf
        assert to_db(-1.0) == -math.inf


class TestTrace:
    def test_matches_scalar_transmission(self, params):
        drive = DriveField(ratio_delta=1.2, phase_phi=0.35 * math.pi)
        grid = DetuningGrid(-5.0, 5.0, 11)
        spectrum = trace(params, drive, grid)
        for i in (0, 3, 5, 10):
            probe_freq = params.cavity_freq - grid.values[i]
            assert spectrum.t[i] == pytest.approx(
                transmission(params, drive, probe_freq), rel=1e-13
            )

    def test_zero_probe_rejected(self, params):
        with pytest.raises(DomainError, match="probe_amp"):
            trace(params, DriveField(ratio_delta=1.0, probe_amp=0.0))

    def test_length_mismatch_rejected(self):
        grid = DetuningGrid(-1.0, 1.0, 5)
        with pytest.raises(DomainError, match="length"):
            SpectrumTrace(grid=grid, t=np.ones(4, dtype=complex))

    def test_db_has_sentinel_at_exact_zero(self):
        grid = DetuningGrid(-1.0, 1.0, 3)
        spectrum = SpectrumTrace(grid=grid, t=np.array([1.0, 0.0, 0.5 + 0.5j]))
        assert spectrum.db[0] == 0.0
        assert spectrum.db[1] == -math.inf
        assert np.isfinite(spectrum.db[2])

    def test_underflowing_denominator_is_a_domain_error(self):
        # rates and detunings near 1e-170 MHz: den ~ 1e-340 underflows to 0
        tiny = SystemParams(0.0, 0.0, 1e-170, 1e-169, 1e-170, 3e-170, 5e-171)
        grid = DetuningGrid(-1e-169, 1e-169, 11)
        drive = DriveField(ratio_delta=1.0)
        with pytest.raises(DomainError, match="underflows"):
            trace(tiny, drive, grid)
        with pytest.raises(DomainError, match="underflows"):
            sweep(tiny, drive, SweepAxis.RATIO, [0.0, 1.0], grid)
        with pytest.raises(DomainError, match="underflows"):
            classify_regime(tiny, drive, grid=grid)

    def test_magnitude_even_in_detuning_without_pump(self, params, drive_off):
        spectrum = trace(params, drive_off, DetuningGrid(-30.0, 30.0, 301))
        np.testing.assert_allclose(
            spectrum.magnitude, spectrum.magnitude[::-1], rtol=1e-12
        )


class TestSweep:
    def test_phase_axis(self, params):
        grid = DetuningGrid(-5.0, 5.0, 21)
        base = DriveField(ratio_delta=1.0)
        values = [0.0, 0.35 * math.pi, 1.35 * math.pi]
        result = sweep(params, base, SweepAxis.PHASE, values, grid)
        assert result.axis is SweepAxis.PHASE
        assert len(result.traces) == 3
        for value, entry in zip(values, result.traces):
            expected = trace(params, replace(base, phase_phi=value), grid)
            np.testing.assert_array_equal(entry.t, expected.t)
        assert result.magnitude_matrix().shape == (3, 21)
        assert result.db_matrix().shape == (3, 21)

    def test_ratio_axis(self, params):
        grid = DetuningGrid(-5.0, 5.0, 21)
        base = DriveField(ratio_delta=0.0, phase_phi=0.5)
        result = sweep(params, base, SweepAxis.RATIO, [0.0, 2.0], grid)
        expected = trace(params, replace(base, ratio_delta=2.0), grid)
        np.testing.assert_array_equal(result.traces[1].t, expected.t)

    def test_empty_values_rejected(self, params):
        with pytest.raises(DomainError):
            sweep(params, DriveField(ratio_delta=0.0), SweepAxis.RATIO, [])

    @pytest.mark.parametrize(
        "axis,field,values",
        [
            (SweepAxis.PHASE, "phase_phi", np.linspace(-math.pi, math.pi, 17)),
            (SweepAxis.RATIO, "ratio_delta", np.linspace(0.0, 4.0, 41)),
        ],
    )
    def test_every_trace_equals_its_own_trace_call(self, params, axis, field, values):
        shifted = replace(params, magnon_freq=1.7)
        grid = default_grid()
        base = DriveField(ratio_delta=1.3, phase_phi=0.2, probe_amp=0.7)
        result = sweep(shifted, base, axis, values, grid)
        for value, entry in zip(values, result.traces):
            expected = trace(shifted, replace(base, **{field: float(value)}), grid)
            assert np.array_equal(entry.t, expected.t)

    def test_each_value_is_still_validated(self, params):
        base = DriveField(ratio_delta=0.0)
        with pytest.raises(DomainError, match="ratio_delta must be >= 0"):
            sweep(params, base, SweepAxis.RATIO, [1.0, -0.5])
        with pytest.raises(DomainError, match="ratio_delta must be finite"):
            sweep(params, base, SweepAxis.RATIO, [1.0, math.nan])
        with pytest.raises(DomainError, match="phase_phi must be finite"):
            sweep(params, base, SweepAxis.PHASE, [0.0, math.inf])
        with pytest.raises(DomainError, match="probe_amp"):
            sweep(params, replace(base, probe_amp=0.0), SweepAxis.RATIO, [1.0])


@given(valid_params(), valid_drives())
@settings(max_examples=50, deadline=None)
def test_trace_equals_transmission_pointwise(params, drive):
    grid = DetuningGrid(-60.0, 60.0, 121)
    result = trace(params, drive, grid)
    for detuning, value in zip(grid.values, result.t):
        probe_freq = params.cavity_freq - detuning
        t_probe, t_pump = transmission_parts(params, drive, probe_freq)
        # relative to the summed terms (t_probe = 1 - ...), which may cancel
        scale = max(1.0, abs(t_probe), abs(t_pump))
        assert abs(value - (t_probe + t_pump)) <= 1e-12 * scale


class TestBaselineAndExtremum:
    def test_baseline_of_flat_trace(self):
        grid = DetuningGrid(-10.0, 10.0, 101)
        spectrum = SpectrumTrace(grid=grid, t=np.full(101, 0.5 + 0j))
        assert baseline_level(spectrum) == 0.5

    def test_baseline_on_default_grid_sits_in_cavity_shoulder(self, params, drive_off):
        # the +-60 MHz default grid never leaves the 113.9 MHz cavity dip
        level = baseline_level(trace(params, drive_off))
        assert level == pytest.approx(0.7083, abs=2e-4)

    def test_baseline_on_wide_grid_recovers_unity(self, params, drive_off):
        wide = DetuningGrid(-1139.0, 1139.0, 1201)
        level = baseline_level(trace(params, drive_off, wide))
        assert level == pytest.approx(0.9966, abs=2e-4)

    def test_transparency_peak_location_and_height(self, params):
        # ideal transparency drive: effective phase 0.35*pi at ratio 1.2
        drive = DriveField(ratio_delta=1.2, phase_phi=1.35 * math.pi)
        spectrum = trace(params, drive)
        detuning, magnitude, is_peak = extremum_near_resonance(spectrum, 10.0)
        assert is_peak
        assert abs(detuning) < 0.5
        # the apex sits slightly off center; the on-resonance value is 1.0446
        assert magnitude == pytest.approx(1.0507, abs=2e-4)

    def test_absorption_dip_is_not_a_peak(self, params):
        drive = DriveField(ratio_delta=0.75, phase_phi=0.35 * math.pi)
        spectrum = trace(params, drive)
        _, magnitude, is_peak = extremum_near_resonance(spectrum, 10.0)
        assert not is_peak
        # below the bare-cavity center level of 0.617
        assert magnitude < 0.62

    def test_window_must_be_inside_grid(self, params, drive_off):
        spectrum = trace(params, drive_off, DetuningGrid(-2.0, 2.0, 41))
        with pytest.raises(DomainError, match="window"):
            extremum_near_resonance(spectrum, 5.0)
        with pytest.raises(DomainError, match="window"):
            extremum_near_resonance(spectrum, -1.0)


class TestClassifyRegime:
    def test_baseline_grid_stays_within_the_magnitude_cap(self):
        # kappa_c at the cap: the wide baseline grid (10 kappa_c) is clipped
        # to the cap instead of failing its own bound check
        device = SystemParams(0.0, 0.0, 1e25, MAX_MAGNITUDE, 1.0, 0.2 * MAX_MAGNITUDE, 0.5)
        assert classify_regime(device, DriveField(ratio_delta=0.0)) is RegimeLabel.MIT

    @pytest.mark.parametrize(
        "ratio,expected",
        [
            (0.15, RegimeLabel.MIT),
            (0.3, RegimeLabel.NULL),
            (0.75, RegimeLabel.MIABS),
            (1.2, RegimeLabel.MIABS),
            (2.1, RegimeLabel.MIABS),
            (5.7, RegimeLabel.FANO),
        ],
    )
    def test_destructive_phase_row(self, params, ratio, expected):
        drive = DriveField(ratio_delta=ratio, phase_phi=0.35 * math.pi)
        assert classify_regime(params, drive) is expected

    @pytest.mark.parametrize(
        "ratio,expected",
        [
            (0.15, RegimeLabel.MIT),
            (0.3, RegimeLabel.MIT),
            (0.75, RegimeLabel.MIT),
            (1.2, RegimeLabel.MIT),
            (2.1, RegimeLabel.MIAMP),
            (5.7, RegimeLabel.MIAMP),
        ],
    )
    def test_constructive_phase_row(self, params, ratio, expected):
        drive = DriveField(ratio_delta=ratio, phase_phi=1.35 * math.pi)
        assert classify_regime(params, drive) is expected

    def test_bare_polariton_is_transparent(self, params, drive_off):
        assert classify_regime(params, drive_off) is RegimeLabel.MIT

    def test_huge_contrast_floor_turns_everything_null(self, params):
        drive = DriveField(ratio_delta=1.2, phase_phi=0.35 * math.pi)
        thresholds = RegimeThresholds(contrast_floor=10.0)
        assert classify_regime(params, drive, thresholds) is RegimeLabel.NULL

    def test_grid_must_cover_the_window(self, params, drive_off):
        narrow = DetuningGrid(-2.0, 2.0, 41)
        with pytest.raises(DomainError, match="window"):
            classify_regime(params, drive_off, grid=narrow)

    def test_explicit_window_override(self, params, drive_off):
        narrow = DetuningGrid(-2.0, 2.0, 41)
        thresholds = RegimeThresholds(window=1.5)
        assert classify_regime(params, drive_off, thresholds, narrow) is RegimeLabel.MIT

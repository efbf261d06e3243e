"""Grids, traces, sweeps, baseline levels, feature extrema, and regime labels.

Frozen magnitudes (baseline levels, the ideal transparency peak) come from
the verified closed-form evaluation at the published rates.
"""

import copy
import math
import sys
import threading
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples, valid_drives, valid_params
from magpol import spectra
from magpol.errors import DomainError
from magpol.model import (
    MAX_MAGNITUDE,
    DriveField,
    SystemParams,
    _scale_exponent,
    transmission,
)
from magpol.spectra import (
    DEFAULT_GRID_COUNT,
    MAX_GRID_COUNT,
    DetuningGrid,
    RegimeLabel,
    SpectrumTrace,
    SweepAxis,
    _median,
    baseline_level,
    classify_regime,
    default_grid,
    sweep,
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

    def test_default_grid_is_one_read_only_instance(self):
        assert default_grid() is default_grid()
        with pytest.raises(ValueError):
            default_grid().values[0] = 7.0

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

    @pytest.mark.parametrize(
        "values", [[-math.inf, 0.0], [0.0, math.nan, 2.0], [-1e308, 1e308], [0.0, 2e50]]
    )
    def test_from_values_rejects_non_finite_and_capped_values(self, values):
        with pytest.raises(DomainError, match="finite and at most"):
            DetuningGrid.from_values(values)

    def test_from_values_rejects_decreasing(self):
        with pytest.raises(DomainError, match="increasing"):
            DetuningGrid.from_values([0.0, 1.0, 0.5])


class TestToDb:
    def test_values(self):
        grid = DetuningGrid(-1.0, 1.0, 5)
        db = SpectrumTrace(grid=grid, t=np.array([1.0, 10.0, 0.01j, 0.0, -1.0])).db
        assert db[0] == 0.0
        assert db[1] == pytest.approx(20.0)
        assert db[2] == pytest.approx(-40.0)
        assert db[3] == -math.inf
        assert db[4] == 0.0


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

    def test_rates_near_1e_minus_170_equal_the_lifted_device(self):
        # the unscaled den ~ 1e-340 would underflow to 0; the prescaled core
        # gives exactly the answers of the same device scaled by 2**560
        rates = (0.0, 0.0, 1e-170, 1e-169, 1e-170, 3e-170, 5e-171)
        tiny = SystemParams(*rates)
        lifted = SystemParams(*(math.ldexp(v, 560) for v in rates))
        grid = DetuningGrid(-1e-169, 1e-169, 11)
        lifted_grid = DetuningGrid(math.ldexp(-1e-169, 560), math.ldexp(1e-169, 560), 11)
        drive = DriveField(ratio_delta=1.0)
        result = trace(tiny, drive, grid)
        assert np.all(np.isfinite(result.t))
        assert np.array_equal(result.t, trace(lifted, drive, lifted_grid).t)
        swept = sweep(tiny, drive, SweepAxis.RATIO, [0.0, 1.0], grid)
        lifted_swept = sweep(lifted, drive, SweepAxis.RATIO, [0.0, 1.0], lifted_grid)
        for entry, expected in zip(swept.traces, lifted_swept.traces):
            assert np.array_equal(entry.t, expected.t)
        assert classify_regime(tiny, drive, grid=grid) is classify_regime(
            lifted, drive, grid=lifted_grid
        )

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
@settings(max_examples=examples(50), deadline=None)
def test_trace_equals_transmission_pointwise(params, drive):
    grid = DetuningGrid(-60.0, 60.0, 121)
    result = trace(params, drive, grid)
    probe_only = replace(drive, ratio_delta=0.0)
    for detuning, value in zip(grid.values, result.t):
        probe_freq = params.cavity_freq - detuning
        expected = transmission(params, drive, probe_freq)
        t_probe = transmission(params, probe_only, probe_freq)
        # relative to the two pathway terms (t_probe = 1 - ...), which may cancel
        scale = max(1.0, abs(t_probe), abs(expected - t_probe))
        assert abs(value - expected) <= 1e-12 * scale


# Medians are most likely to differ from np.median at ties, signed zeros
# (np.mean of one -0.0 is +0.0), infinities (inf - inf in a mean of two)
# and nan (np.median returns the nan that sorts last).
_MEDIAN_POOL = st.one_of(
    st.floats(),
    st.integers(-2, 2).map(float),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)


class TestMedian:
    @settings(max_examples=examples(200), deadline=None)
    @given(
        st.integers(1, 300),
        st.lists(_MEDIAN_POOL, min_size=1, max_size=8),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_numpy_median_bit_for_bit(self, size, pool, pool_share, seed):
        # each sample is a pool value (so ties and the special values
        # repeat) with probability pool_share, else a distinct normal draw
        rng = np.random.default_rng(seed)
        values = np.where(
            rng.random(size) < pool_share, rng.choice(np.array(pool), size), rng.normal(size=size)
        )
        with np.errstate(all="ignore"):
            expected = np.median(values)
            got = _median(values)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


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

    @staticmethod
    def feature(spectrum, window):
        """(detuning, magnitude, deviation) of the sample inside |detuning| <=
        window that deviates most from the chord between the window edges."""
        delta = spectrum.grid.values
        inside = np.abs(delta) <= window
        edges = np.flatnonzero(inside)[[0, -1]]
        x0, x1 = delta[edges]
        y0, y1 = spectrum.magnitude[edges]
        deviation = spectrum.magnitude - (y0 + (delta - x0) * (y1 - y0) / (x1 - x0))
        pick = np.flatnonzero(inside)[np.argmax(np.abs(deviation[inside]))]
        return delta[pick], spectrum.magnitude[pick], deviation[pick]

    def test_transparency_peak_location_and_height(self, params):
        # ideal transparency drive: effective phase 0.35*pi at ratio 1.2
        drive = DriveField(ratio_delta=1.2, phase_phi=1.35 * math.pi)
        detuning, magnitude, deviation = self.feature(trace(params, drive), 10.0)
        assert deviation > 0.0
        assert abs(detuning) < 0.5
        # the apex sits slightly off center; the on-resonance value is 1.0446
        assert magnitude == pytest.approx(1.0507, abs=2e-4)

    def test_absorption_dip_is_not_a_peak(self, params):
        drive = DriveField(ratio_delta=0.75, phase_phi=0.35 * math.pi)
        _, magnitude, deviation = self.feature(trace(params, drive), 10.0)
        assert deviation < 0.0
        # below the bare-cavity center level of 0.617
        assert magnitude < 0.62


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

    def test_grid_must_cover_the_window(self, params, drive_off):
        narrow = DetuningGrid(-2.0, 2.0, 41)
        with pytest.raises(DomainError, match="window"):
            classify_regime(params, drive_off, grid=narrow)

    def test_grid_with_no_sample_in_the_window_is_rejected(self, params):
        # two samples span the window from outside it: once a Null label
        # from no evidence
        drive = DriveField(1.2, 1.1)
        fine = DetuningGrid(-100.0, 100.0, 1201)
        assert classify_regime(params, drive, grid=fine) is RegimeLabel.MIABS
        message = r"grid \[-100.0, 100.0\] with 2 samples has none inside the .* window"
        with pytest.raises(DomainError, match=message):
            classify_regime(params, drive, grid=DetuningGrid(-100.0, 100.0, 2))


def classify_regime_reference(params, drive, grid=None):
    """The regime label from three full traces (measured, bare cavity and a
    wide baseline grid): the algorithm classify_regime must reproduce on the
    samples it reads, with its rules written out (window of 6 feature
    widths, contrast floor 0.05, Fano lobe ratio 0.32, baseline over
    +-10 kappa_c, 10% amplification headroom)."""
    if grid is None:
        grid = default_grid()
    window = 6.0 * params.feature_width()
    if grid.start > -window or grid.stop < window:
        raise DomainError(
            f"grid [{grid.start}, {grid.stop}] does not span the "
            f"{window:g} MHz feature window"
        )
    inside = np.abs(grid.values) <= window
    if not np.any(inside):
        raise DomainError(
            f"grid [{grid.start}, {grid.stop}] with {grid.count} samples has none "
            f"inside the {window:g} MHz feature window"
        )
    measured = trace(params, drive, grid)
    bare = trace(replace(params, coupling_g=0.0), replace(drive, ratio_delta=0.0), grid)
    deviation = measured.magnitude[inside] - bare.magnitude[inside]
    positive_lobe = float(np.max(deviation, initial=0.0))
    negative_lobe = float(-np.min(deviation, initial=0.0))
    contrast = max(positive_lobe, negative_lobe)
    if contrast < 0.05:
        return RegimeLabel.NULL
    if min(positive_lobe, negative_lobe) > 0.32 * contrast:
        return RegimeLabel.FANO
    if positive_lobe >= negative_lobe:
        half_span = min(max(10.0 * params.kappa_c, grid.stop, -grid.start), MAX_MAGNITUDE)
        wide = DetuningGrid(-half_span, half_span, DEFAULT_GRID_COUNT)
        baseline = baseline_level(trace(params, drive, wide))
        peak = float(np.max(measured.magnitude[inside]))
        if peak <= baseline * (1.0 + 0.10):
            return RegimeLabel.MIT
        return RegimeLabel.MIAMP
    return RegimeLabel.MIABS


def _label_or_error(classify, *args):
    try:
        return classify(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


@st.composite
def label_grids(draw, window):
    """Grids around a feature window: up to 2**8 times wider on either side
    (so their ends often set another prescale than the window's samples) or
    slightly narrower than the window, with 1 to 120 samples across it but
    at most 4001 in all, built directly or from values; or, one time in
    three, a grid with a sample on each window edge."""
    if draw(st.integers(0, 2)) == 0:
        # samples at window * j / 2**p: exactly +-window at j = +-2**p
        p = draw(st.integers(0, 5))
        below, above = (draw(st.integers(2**p, min(2 ** (p + 8), 2000))) for _ in range(2))
        return DetuningGrid.from_values(window * (np.arange(-below, above + 1) * 2.0**-p))
    start = -window * 2.0 ** draw(st.floats(-0.15, 8.0))
    stop = window * 2.0 ** draw(st.floats(-0.15, 8.0))
    step = 2.0 * window / draw(st.integers(1, 120))
    count = min(math.ceil((stop - start) / step) + 1, 4001)
    if draw(st.booleans()):
        return DetuningGrid(start, stop, count)
    step = (stop - start) / (count - 1)
    return DetuningGrid.from_values(start + step * np.arange(count))


@st.composite
def wide_devices(draw):
    """A valid_params() device whose coupling, linewidths and magnon offset
    may each be moved to any magnitude from 1e-150 to 1e50 MHz (the
    external rates keep their fractions of the totals)."""
    params = draw(valid_params())
    updates = {}
    for name in ("coupling_g", "kappa_c", "kappa_m", "magnon_freq"):
        if draw(st.booleans()):
            updates[name] = 10.0 ** draw(st.floats(-150.0, 50.0))
    kappa_c = updates.get("kappa_c", params.kappa_c)
    kappa_m = updates.get("kappa_m", params.kappa_m)
    updates["kappa_c1"] = min(kappa_c * (params.kappa_c1 / params.kappa_c), kappa_c)
    updates["kappa_m1"] = min(kappa_m * (params.kappa_m1 / params.kappa_m), kappa_m)
    return replace(params, **updates)


class TestClassifyRegimeReference:
    @given(valid_params(), valid_drives(), st.data())
    @settings(max_examples=examples(100), deadline=None)
    def test_property_label_equals_reference(self, params, drive, data):
        grid = data.draw(label_grids(6.0 * params.feature_width()))
        args = (params, drive, grid)
        assert _label_or_error(classify_regime, *args) == _label_or_error(
            classify_regime_reference, *args
        )

    def test_window_edges_on_grid_samples_are_inside(self):
        # the window is exactly 6 * (0.25 + 1 * (1 / 4)) = 3 and holds only
        # its two edge samples, whose lobes have opposite signs: with both
        # the label is Fano, with one it is not
        device = SystemParams(0.0, 0.0, 1.0, 4.0, 0.25, 1.0, 0.125)
        assert 6.0 * device.feature_width() == 3.0
        grid = DetuningGrid(-9.0, 9.0, 4)
        assert grid.values.tolist() == [-9.0, -3.0, 3.0, 9.0]
        drive = DriveField(ratio_delta=3.0, phase_phi=0.125 * math.pi)
        args = (device, drive, grid)
        assert classify_regime(*args) is classify_regime_reference(*args) is RegimeLabel.FANO
        one_edge = DetuningGrid.from_values([-9.0, -3.0, math.nextafter(3.0, 4.0), 9.0])
        args = (device, drive, one_edge)
        assert classify_regime(*args) is classify_regime_reference(*args)
        assert classify_regime(*args) is not RegimeLabel.FANO

    @given(wide_devices(), st.floats(-0.15, 8.0), st.floats(-0.15, 8.0))
    @settings(max_examples=examples(200))
    def test_bare_cavity_prescale_is_the_coupled_one(self, device, below, above):
        # classify_regime evaluates the bare cavity at the coupled device's
        # prescale: g can raise that prescale only where g > kappa_c, and
        # there the window 6 * (kappa_m + g * (g / kappa_c)) exceeds 6g, so
        # a grid that spans the window has an end above g
        window = 6.0 * device.feature_width()
        start = -min(window * 2.0**below, MAX_MAGNITUDE)
        stop = min(window * 2.0**above, MAX_MAGNITUDE)
        if start <= -window and stop >= window:
            bare = replace(device, coupling_g=0.0)
            assert _scale_exponent(bare, start, stop) == _scale_exponent(device, start, stop)


def _equal_copy(params):
    """A device equal to params by == but another object, with every zero
    field negated (0.0 == -0.0)."""
    return SystemParams(*(-value if value == 0.0 else value for value in astuple(params)))


class TestLabelTermsCache:
    """classify_regime keeps the drive-free terms of its last device and
    grid; every label and error must stay those of the reference."""

    @given(valid_params(), st.floats(-50.0, 50.0), st.floats(0.0, 1.0), st.data())
    @settings(max_examples=examples(60), deadline=None)
    def test_property_interleaved_calls_equal_reference(self, first, offset, weaker, data):
        window = 6.0 * first.feature_width()
        grid = data.draw(label_grids(window))
        # a grid whose only samples inside the window are its two edges, as
        # in test_window_edges_on_grid_samples_are_inside, and a grid equal
        # to it by == whose upper edge sample moves out by an ulp
        below, above = (data.draw(st.integers(1, 4)) for _ in range(2))
        edge = DetuningGrid.from_values(window * (2.0 * np.arange(-below, above + 1) + 1.0))
        values = edge.values.copy()
        values[below] = math.nextafter(window, math.inf)
        nudged = DetuningGrid.from_values(values)
        assert nudged == edge and not np.array_equal(nudged.values, edge.values)
        grids = [
            grid,
            copy.copy(grid),  # another object holding the same samples
            edge,
            nudged,
            DetuningGrid(-0.5 * window, window, 11),  # misses the window
            DetuningGrid(-2.0 * window, 2.0 * window, 2),  # no sample inside
        ]
        if window <= 60.0:
            grids.append(None)  # the default grid spans this window
        # another device whose narrower window the same grids span
        second = replace(first, magnon_freq=offset, coupling_g=weaker * first.coupling_g)
        devices = [first, _equal_copy(first), second]
        # one drive in ten has no probe, which raises
        drives = st.tuples(valid_drives(), st.integers(0, 9)).map(
            lambda pair: pair[0] if pair[1] else replace(pair[0], probe_amp=0.0)
        )
        calls = data.draw(
            st.lists(
                st.tuples(st.sampled_from(devices), st.sampled_from(grids), drives),
                min_size=2,
                max_size=16,
            )
        )
        for params, grid, drive in calls:
            assert _label_or_error(classify_regime, params, drive, grid) == _label_or_error(
                classify_regime_reference, params, drive, grid
            )

    def test_one_device_builds_its_terms_once(self, params, monkeypatch):
        # the scan's table: 12 drives on one device, 11 of them hits
        built = []

        class Counted(spectra._LabelTerms):
            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(spectra, "_LabelTerms", Counted)
        monkeypatch.setattr(spectra, "_last_label_terms", None)  # whatever ran before
        for ratio in (0.2, 1.0, 2.0, 3.0):
            for phase in (1.25 * math.pi, 1.35 * math.pi, 1.45 * math.pi):
                classify_regime(params, DriveField.with_effective_phase(ratio, phase))
        assert built == [params]
        classify_regime(replace(params, kappa_m=1.3), DriveField(1.0))
        classify_regime(params, DriveField(1.0), grid=DetuningGrid(-60.0, 60.0, 1201))
        assert len(built) == 3

    def test_a_call_that_raises_keeps_the_entry(self, params):
        classify_regime(params, DriveField(1.0))
        entry = spectra._last_label_terms
        other = replace(params, kappa_m=1.3)
        with pytest.raises(DomainError, match="probe_amp"):
            classify_regime(other, DriveField(1.0, probe_amp=0.0))
        with pytest.raises(DomainError, match="window"):
            classify_regime(other, DriveField(1.0), grid=DetuningGrid(-2.0, 2.0, 41))
        assert spectra._last_label_terms is entry

    def test_concurrent_callers_get_their_own_labels(self, params):
        # four threads on two devices and two grids replace the entry under
        # one another at a short switch interval; a label made from another
        # caller's terms would differ from the reference
        devices = [params, replace(params, magnon_freq=0.8, coupling_g=5.0)]
        grids = [None, DetuningGrid(-80.0, 80.0, 1601)]
        drives = [DriveField(ratio, phase * math.pi) for ratio in (0.15, 1.2, 2.1) for phase in (0.35, 1.35)]
        cases = [(d, drive, g) for d in devices for g in grids for drive in drives]
        expected = [classify_regime_reference(*case) for case in cases]
        assert len(set(expected)) > 2
        wrong = []

        def worker(offset):
            for step in range(200):
                i = (offset + 5 * step) % len(cases)
                try:
                    label = classify_regime(*cases[i])
                except Exception as exc:  # recorded: a thread's error is no failure
                    label = exc
                if label is not expected[i]:
                    wrong.append((cases[i], label))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

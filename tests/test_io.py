"""Trace file round trips: CSV and Touchstone v1, plus parse failures."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from magpol.config import _format_number, _rows
from magpol.errors import TraceParseError
from magpol.io import (
    TraceFormat,
    read_trace,
    render_csv,
    render_touchstone,
    write_trace,
)
from magpol.model import DriveField
from magpol.spectra import DetuningGrid, SpectrumTrace, trace


# Values where a formatter is most likely to differ from format(x, ".17g").
SPECIAL_VALUES = [
    0.0,
    -0.0,
    math.nan,
    math.inf,
    -math.inf,  # also the dB sentinel of a zero magnitude
    5e-324,
    -5e-324,
    sys.float_info.min / 3.0,
    sys.float_info.min,
    sys.float_info.max,
    -sys.float_info.max,
    0.1,
    1e16,
    123456789012345678.0,
]


def _reference_rows(columns, sep=","):
    """The per-element loop every table was once written with."""
    return [sep.join(format(x, ".17g") for x in row) for row in zip(*columns)]


def _reference_touchstone(trace, cavity_freq, metadata):
    lines = [f"! {key} = {value}" for key, value in metadata.items()]
    lines.append("# HZ S RI R 50")
    for i in range(trace.grid.count - 1, -1, -1):
        freq_hz = (cavity_freq - trace.grid.values[i]) * 1e6
        value = trace.t[i]
        lines.append(" ".join(format(x, ".17g") for x in (freq_hz, value.real, value.imag)))
    return "\n".join(lines) + "\n"


@pytest.fixture
def reference_trace(params):
    drive = DriveField(ratio_delta=1.2, phase_phi=0.35 * math.pi)
    return trace(params, drive, DetuningGrid(-60.0, 60.0, 1201))


class TestCsv:
    def test_round_trip_is_bitwise(self, reference_trace, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(reference_trace, path)
        info, loaded = read_trace(path)
        assert info.format is TraceFormat.CSV
        np.testing.assert_array_equal(loaded.grid.values, reference_trace.grid.values)
        np.testing.assert_array_equal(loaded.t, reference_trace.t)

    def test_rewrite_is_byte_identical(self, reference_trace, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_trace(reference_trace, first)
        _, loaded = read_trace(first)
        write_trace(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_render_layout(self):
        grid = DetuningGrid.from_values(np.array([-1.0, 1.0]))
        sample = SpectrumTrace(grid=grid, t=np.array([1.0 + 0.0j, 0.5j]))
        text = render_csv(sample)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert len(lines) == 3
        assert lines[0] == "detuning_mhz,re,im,magnitude,db"
        assert lines[1] == "-1,1,0,1,0"
        assert lines[2].startswith("1,0,0.5,0.5,")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq,re,im\n0,1,0\n")
        with pytest.raises(TraceParseError, match="option line"):
            # not the CSV header, so it parses as Touchstone and fails there
            read_trace(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("detuning_mhz,re,im,magnitude,db\n0,1,0\n")
        with pytest.raises(TraceParseError, match="5 columns") as info:
            read_trace(path)
        assert info.value.line == 2

    def test_decreasing_detuning_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "detuning_mhz,re,im,magnitude,db\n"
            "1,1,0,1,0\n0,1,0,1,0\n"
        )
        with pytest.raises(TraceParseError, match="strictly increasing"):
            read_trace(path)

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "detuning_mhz,re,im,magnitude,db\n"
            "0,1,0,1,0\nnan?,1,0,1,0\n"
        )
        with pytest.raises(TraceParseError) as info:
            read_trace(path)
        assert info.value.line == 3

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("detuning_mhz,re,im,magnitude,db\n")
        with pytest.raises(TraceParseError, match="no data rows"):
            read_trace(path)


class TestRowRenderer:
    @given(
        st.integers(1, 6),
        st.lists(st.floats() | st.sampled_from(SPECIAL_VALUES), max_size=48),
        st.sampled_from([",", " "]),
    )
    @settings(max_examples=examples(100), deadline=None)
    def test_rows_match_per_element_format(self, width, values, sep):
        count = len(values) // width
        columns = list(np.array(values[: width * count], dtype=float).reshape(width, count))
        assert _rows(columns, sep) == _reference_rows(columns, sep)

    def test_special_values_match_per_element_format(self):
        column = np.array(SPECIAL_VALUES)
        columns = [column, column[::-1], -column]
        assert _rows(columns) == _reference_rows(columns)
        assert [_format_number(x) for x in SPECIAL_VALUES] == [
            format(x, ".17g") for x in SPECIAL_VALUES
        ]

    def test_zero_magnitude_prints_the_db_sentinel(self):
        grid = DetuningGrid.from_values(np.array([-1.0, 1.0]))
        sample = SpectrumTrace(grid=grid, t=np.array([0.0j, 1.0 + 0.0j]))
        assert render_csv(sample).splitlines()[1] == "-1,0,0,0,-inf"

    def test_csv_matches_per_element_format(self, reference_trace):
        t = reference_trace.t
        columns = [
            reference_trace.grid.values,
            t.real,
            t.imag,
            reference_trace.magnitude,
            reference_trace.db,
        ]
        expected = ["detuning_mhz,re,im,magnitude,db"] + _reference_rows(columns)
        assert render_csv(reference_trace) == "\n".join(expected) + "\n"

    def test_touchstone_matches_per_element_format(self, reference_trace):
        metadata = {"delta": "1.2", "phi": "1.0995574287564276", "note": "run 4"}
        text = render_touchstone(reference_trace, cavity_freq=10245.3, metadata=metadata)
        assert text == _reference_touchstone(reference_trace, 10245.3, metadata)
        lines = text.splitlines()
        assert lines[:4] == [
            "! delta = 1.2",
            "! phi = 1.0995574287564276",
            "! note = run 4",
            "# HZ S RI R 50",
        ]
        # ascending frequency rows are descending detuning rows
        detunings = [10245.3 - float(line.split()[0]) / 1e6 for line in lines[4:]]
        assert len(detunings) == reference_trace.grid.count
        assert all(a > b for a, b in zip(detunings, detunings[1:]))


class TestTouchstone:
    def test_round_trip_preserves_t_bitwise(self, reference_trace, tmp_path):
        path = tmp_path / "trace.s1p"
        write_trace(reference_trace, path, format=TraceFormat.TOUCHSTONE_S1P)
        info, loaded = read_trace(path)
        assert info.format is TraceFormat.TOUCHSTONE_S1P
        assert info.unit == "HZ"
        assert info.layout == "RI"
        assert info.z0 == 50.0
        np.testing.assert_array_equal(loaded.t, reference_trace.t)
        # the MHz -> Hz -> MHz frequency conversion can move the axis by ulps
        np.testing.assert_allclose(
            loaded.grid.values, reference_trace.grid.values, rtol=0.0, atol=1e-9
        )

    def test_rewrite_is_byte_identical_on_dyadic_grid(self, params, tmp_path):
        # spacing 0.5 is a power of two, so detuning -> Hz -> detuning is exact
        drive = DriveField(ratio_delta=0.8, phase_phi=0.5)
        sample = trace(params, drive, DetuningGrid(-60.0, 60.0, 241))
        first = tmp_path / "a.s1p"
        second = tmp_path / "b.s1p"
        write_trace(
            sample, first, format=TraceFormat.TOUCHSTONE_S1P, metadata={"delta": "0.8"}
        )
        info, loaded = read_trace(first)
        np.testing.assert_array_equal(loaded.grid.values, sample.grid.values)
        write_trace(
            loaded, second, format=TraceFormat.TOUCHSTONE_S1P, metadata=info.metadata
        )
        assert first.read_bytes() == second.read_bytes()

    def test_metadata_round_trip(self, reference_trace, tmp_path):
        path = tmp_path / "trace.s1p"
        metadata = {"delta": "1.2", "phi": "0.35pi", "note": "lab run 4"}
        write_trace(
            reference_trace, path, format=TraceFormat.TOUCHSTONE_S1P, metadata=metadata
        )
        info, _ = read_trace(path)
        assert info.metadata == metadata

    def test_option_line_header(self, reference_trace):
        text = render_touchstone(reference_trace)
        lines = text.splitlines()
        assert lines[0] == "# HZ S RI R 50"
        assert text.endswith("\n")
        # ascending frequency means descending detuning: first row is +60 MHz
        first_freq = float(lines[1].split()[0])
        assert first_freq == pytest.approx(-60e6)

    def test_frequency_offset_conversion(self, tmp_path):
        path = tmp_path / "shifted.s1p"
        path.write_text(
            "# MHZ S RI R 50\n"
            "7498 1 0\n7499 0 1\n7500 1 0\n7501 0 -1\n7502 -1 0\n"
        )
        _, loaded = read_trace(path, cavity_freq=7500.0)
        np.testing.assert_array_equal(
            loaded.grid.values, np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        )
        # order reverses along with the axis
        np.testing.assert_array_equal(
            loaded.t, np.array([-1.0, 0.0 - 1.0j, 1.0, 1.0j, 1.0])
        )

    def test_db_layout_decoded(self, tmp_path):
        path = tmp_path / "db.s1p"
        path.write_text("# MHZ S DB R 50\n1 -40 0\n2 0 0\n")
        _, loaded = read_trace(path, cavity_freq=3.0)
        np.testing.assert_allclose(loaded.t, np.array([1.0, 0.01]), rtol=1e-12)

    def test_ma_layout_decoded(self, tmp_path):
        path = tmp_path / "ma.s1p"
        path.write_text("# MHZ S MA R 50\n1 0.5 90\n2 1 180\n")
        _, loaded = read_trace(path, cavity_freq=3.0)
        assert loaded.t[1] == pytest.approx(0.5j, abs=1e-12)
        assert loaded.t[0] == pytest.approx(-1.0, abs=1e-12)

    def test_option_defaults_are_ghz_ma(self, tmp_path):
        path = tmp_path / "bare.s1p"
        path.write_text("# S\n0.001 1 0\n0.002 1 0\n")
        info, loaded = read_trace(path, cavity_freq=3.0)
        assert info.unit == "GHZ"
        assert info.layout == "MA"
        np.testing.assert_array_equal(loaded.grid.values, np.array([1.0, 2.0]))

    def test_unknown_option_token(self, tmp_path):
        path = tmp_path / "bad.s1p"
        path.write_text("# MHZ S RI Q 50\n1 1 0\n")
        with pytest.raises(TraceParseError, match="unknown option token") as info:
            read_trace(path)
        assert info.value.line == 1

    def test_missing_s_token(self, tmp_path):
        path = tmp_path / "bad.s1p"
        path.write_text("# MHZ RI R 50\n1 1 0\n")
        with pytest.raises(TraceParseError, match="S parameter token"):
            read_trace(path)

    def test_reads_the_file_impedance(self, tmp_path):
        path = tmp_path / "z75.s1p"
        path.write_text("# MHZ S RI R 75\n1 1 0\n2 1 0\n")
        info, _ = read_trace(path)
        assert info.z0 == 75.0

    def test_r_without_impedance(self, tmp_path):
        path = tmp_path / "bad.s1p"
        path.write_text("# MHZ S RI R\n1 1 0\n")
        with pytest.raises(TraceParseError, match="R without impedance"):
            read_trace(path)

    def test_multiple_option_lines(self, tmp_path):
        path = tmp_path / "bad.s1p"
        path.write_text("# MHZ S RI R 50\n# MHZ S RI R 50\n1 1 0\n")
        with pytest.raises(TraceParseError, match="multiple option lines") as info:
            read_trace(path)
        assert info.value.line == 2

    def test_data_before_option_line(self, tmp_path):
        path = tmp_path / "bad.s1p"
        path.write_text("1 1 0\n# MHZ S RI R 50\n")
        with pytest.raises(TraceParseError, match="before the option line"):
            read_trace(path)

    def test_non_monotonic_frequency(self, tmp_path):
        path = tmp_path / "bad.s1p"
        path.write_text("# MHZ S RI R 50\n2 1 0\n1 1 0\n")
        with pytest.raises(TraceParseError, match="strictly increasing") as info:
            read_trace(path)
        assert info.value.line == 3

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.s1p"
        path.write_text("# MHZ S RI R 50\n1 1\n")
        with pytest.raises(TraceParseError, match="3 columns"):
            read_trace(path)

    def test_no_data_lines(self, tmp_path):
        path = tmp_path / "bad.s1p"
        path.write_text("# MHZ S RI R 50\n! comment only\n")
        with pytest.raises(TraceParseError, match="no data lines"):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.s1p"
        path.write_text("\n\n")
        with pytest.raises(TraceParseError, match="missing option line"):
            read_trace(path)

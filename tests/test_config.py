"""Run-configuration parsing: sections, defaults, phase literals, errors."""

import math

import pytest

from magpol.config import load_config, parse_config, parse_phase
from magpol.errors import ConfigError
from magpol.spectra import MAX_GRID_COUNT

FULL_DOCUMENT = """\
# reference device
[system]
g = 7.6            # MHz
kappa_c = 113.9
kappa_m = 1.2
kappa_c1 = 21.8
kappa_m1 = 0.6
magnon_freq = 2.5

[drive]
delta = 1.5
phi = 0.35pi
phi0 = pi

[grid]
start = -40
stop = 40
count = 801
"""


class TestParsePhase:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("1.35pi", 1.35 * math.pi),
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("+pi", math.pi),
            ("0.5pi", 0.5 * math.pi),
            ("2pi", 2.0 * math.pi),
            ("0", 0.0),
            ("1.5", 1.5),
            ("-0.25", -0.25),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_phase(text) == pytest.approx(expected, abs=0.0)

    @pytest.mark.parametrize("text", ["", "pie", "1.2pi3", "pi pi", "--pi"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_phase(text)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "infpi", "nanpi", "1e308pi"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_phase(text)


class TestParseConfig:
    def test_full_document(self):
        run = parse_config(FULL_DOCUMENT)
        assert run.system.coupling_g == 7.6
        assert run.system.kappa_c == 113.9
        assert run.system.kappa_m == 1.2
        assert run.system.kappa_c1 == 21.8
        assert run.system.kappa_m1 == 0.6
        assert run.system.magnon_freq == 2.5
        assert run.system.cavity_freq == 0.0
        assert run.drive.ratio_delta == 1.5
        assert run.drive.phase_phi == pytest.approx(0.35 * math.pi)
        assert run.drive.phase_offset == pytest.approx(math.pi)
        assert run.grid.start == -40.0
        assert run.grid.stop == 40.0
        assert run.grid.count == 801

    def test_system_only_uses_drive_and_grid_defaults(self):
        run = parse_config(
            "[system]\ng = 7.6\nkappa_c = 113.9\nkappa_m = 1.2\n"
            "kappa_c1 = 21.8\nkappa_m1 = 0.6\n"
        )
        assert run.drive.ratio_delta == 0.0
        assert run.drive.phase_phi == 0.0
        assert run.drive.phase_offset == math.pi
        assert run.drive.probe_amp == 1.0
        assert run.grid.start == -60.0
        assert run.grid.stop == 60.0
        assert run.grid.count == 1201

    def test_example_config_describes_undercoupled_cavity(self):
        run = load_config("configs/example_device.toml")
        assert run.system.eta_c == pytest.approx(0.1914, abs=5e-4)
        assert run.system.eta_m == pytest.approx(0.5)

    def test_comment_and_blank_tolerance(self):
        run = parse_config(
            "\n# leading comment\n[system]  # trailing\n\ng = 7.6\n"
            "kappa_c = 113.9   # MHz\nkappa_m = 1.2\nkappa_c1 = 21.8\nkappa_m1 = 0.6\n"
        )
        assert run.system.kappa_c == 113.9


class TestConfigErrors:
    def _base(self, **overrides):
        values = {
            "g": "7.6",
            "kappa_c": "113.9",
            "kappa_m": "1.2",
            "kappa_c1": "21.8",
            "kappa_m1": "0.6",
        }
        values.update(overrides)
        lines = ["[system]"] + [f"{k} = {v}" for k, v in values.items()]
        return "\n".join(lines) + "\n"

    def test_missing_system_section(self):
        with pytest.raises(ConfigError, match="missing \\[system\\] section"):
            parse_config("[drive]\ndelta = 1\n")

    def test_missing_required_key(self):
        text = "[system]\ng = 7.6\nkappa_c = 113.9\nkappa_m = 1.2\nkappa_c1 = 21.8\n"
        with pytest.raises(ConfigError, match="kappa_m1"):
            parse_config(text)

    def test_physical_violation_names_key_and_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config(self._base(kappa_c1="200"))
        assert info.value.key == "kappa_c1"
        assert info.value.line == 5
        assert "kappa_c1" in str(info.value)
        assert "line 5" in str(info.value)

    def test_negative_rate_reported_against_source_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config(self._base(kappa_m="-1.0"))
        assert info.value.key == "kappa_m"
        assert info.value.line == 4

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(self._base() + "[pump]\npower = 3\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(self._base(quality="10"))

    def test_duplicate_section(self):
        with pytest.raises(ConfigError, match="duplicate section"):
            parse_config(self._base() + "[system]\ng = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as info:
            parse_config(self._base() + "g = 7.7\n")
        assert "duplicate key" in str(info.value)
        assert info.value.line == 7

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("g = 7.6\n" + self._base())

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config("[system]\ng 7.6\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError) as info:
            parse_config(self._base(kappa_c="fast"))
        assert "invalid number" in str(info.value)
        assert info.value.key == "kappa_c"

    def test_bad_grid_count(self):
        with pytest.raises(ConfigError, match="invalid integer"):
            parse_config(self._base() + "[grid]\ncount = 12.5\n")

    def test_bad_phase_literal_in_drive(self):
        with pytest.raises(ConfigError) as info:
            parse_config(self._base() + "[drive]\nphi = twopi\n")
        assert info.value.key == "phi"

    @pytest.mark.parametrize(
        "entry,key,line",
        [("delta = nan", "delta", 8), ("probe_amp = inf", "probe_amp", 8), ("phi = inf", "phi", 8)],
    )
    def test_non_finite_drive_value_names_key_and_line(self, entry, key, line):
        with pytest.raises(ConfigError) as info:
            parse_config(self._base() + f"[drive]\n{entry}\n")
        assert info.value.key == key
        assert info.value.line == line

    @pytest.mark.parametrize(
        "overrides,extra,key,line",
        [
            ({"g": "nan"}, "", "g", 2),
            ({"kappa_c": "inf"}, "", "kappa_c", 3),
            ({"cavity_freq": "nan"}, "", "cavity_freq", 7),
            ({"magnon_freq": "inf"}, "", "magnon_freq", 7),
            ({}, "[grid]\nstart = -inf\n", "start", 8),
            ({}, "[grid]\nstop = nan\n", "stop", 8),
            ({}, f"[grid]\ncount = {MAX_GRID_COUNT + 1}\n", "count", 8),
            ({}, "[grid]\ncount = 1\n", "count", 8),
        ],
    )
    def test_domain_errors_name_key_and_line(self, overrides, extra, key, line):
        with pytest.raises(ConfigError) as info:
            parse_config(self._base(**overrides) + extra)
        assert info.value.key == key
        assert info.value.line == line

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.toml")

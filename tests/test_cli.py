"""End-to-end command-line checks through dispatch()."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import magpol
from magpol.cli import dispatch
from magpol.io import TraceFormat, read_trace, write_trace
from magpol import oracle
from magpol.model import MAX_MAGNITUDE, DriveField, SystemParams
from magpol.spectra import DetuningGrid, trace

TRUTH = SystemParams(
    cavity_freq=0.0,
    magnon_freq=0.0,
    coupling_g=7.6,
    kappa_c=113.9,
    kappa_m=1.2,
    kappa_c1=21.8,
    kappa_m1=0.6,
)


def _write_config(path, grid_count=1201, grid_span=60, **system_overrides):
    system = {
        "g": 7.6,
        "kappa_c": 113.9,
        "kappa_m": 1.2,
        "kappa_c1": 21.8,
        "kappa_m1": 0.6,
    }
    system.update(system_overrides)
    lines = ["[system]"]
    lines += [f"{key} = {value}" for key, value in system.items()]
    lines += ["", "[grid]", f"start = {-grid_span}", f"stop = {grid_span}", f"count = {grid_count}"]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def config_path(tmp_path):
    return _write_config(tmp_path / "device.toml")


def _parse_keyed_lines(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert dispatch(["harmonize"]) == 2
        capsys.readouterr()

    def test_spectrum_requires_config(self, capsys):
        assert dispatch(["spectrum"]) == 2
        capsys.readouterr()

    def test_bad_phase_literal(self, config_path, capsys):
        code = dispatch(["classify", "--config", config_path, "--phi", "threepi"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("phase", ["inf", "nan", "-infpi"])
    def test_non_finite_phase(self, config_path, capsys, phase):
        code = dispatch(["classify", "--config", config_path, f"--phi={phase}"])
        assert code == 2
        assert "invalid phase" in capsys.readouterr().err

    def test_non_finite_ratio_is_a_domain_error(self, config_path, capsys):
        code = dispatch(["classify", "--config", config_path, "--delta", "nan"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ratio_delta must be finite" in captured.err

    @pytest.mark.parametrize(
        "command,option,value",
        [
            ("oracle-check", "--tol", "nan"),
            ("oracle-check", "--tol", "inf"),
            ("oracle-check", "--tol", "0"),
            ("oracle-check", "--tol", "-1e-8"),
            ("zero", "--max-ratio", "nan"),
            ("zero", "--max-ratio", "inf"),
        ],
    )
    def test_bound_options_must_be_finite(self, config_path, capsys, command, option, value):
        argv = [command, "--config", config_path, f"{option}={value}"]
        if command == "zero":
            argv.append("--phase-eff=0.4pi")
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_seed_must_be_a_non_negative_integer(self, config_path, capsys, seed):
        argv = ["oracle-check", "--config", config_path, "--count", "1", "--seed", seed]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in captured.err

    def test_python_dash_m_entry_point(self):
        result = _run_fresh_python(["-m", "magpol", "--help"])
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: magpol")


def _run_fresh_python(args):
    """A new interpreter that imports magpol from the same tree as this one."""
    src = os.path.dirname(os.path.dirname(magpol.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


class TestColdImport:
    def test_no_command_imports_scipy(self, tmp_path):
        # magpol runs on numpy alone; scipy is a test-only reference
        config = _write_config(tmp_path / "device.toml", grid_count=101)
        guess = _write_config(tmp_path / "guess.toml", grid_count=101, g=7.0)
        traces = []
        for k, delta in enumerate((0.0, 1.0, 2.0)):
            drive = DriveField(ratio_delta=delta, phase_phi=0.35 * math.pi)
            path = tmp_path / f"run{k}.s1p"
            write_trace(
                trace(TRUTH, drive, DetuningGrid(-60.0, 60.0, 241)),
                path,
                format=TraceFormat.TOUCHSTONE_S1P,
                metadata={"delta": repr(delta), "phi": "0.35pi"},
            )
            traces += ["--data", str(path)]
        script = textwrap.dedent(
            f"""
            import contextlib, io, sys
            import magpol.cli

            runs = [
                [command, "--config", {config!r}, *options]
                for command, *options in (
                    ["spectrum"],
                    ["delay"],
                    ["classify"],
                    ["zero", "--phase-eff", "0.4pi"],
                    ["map", "--axis", "ratio", "--values", "0,1.5"],
                )
            ]
            runs.append(["fit", "--config", {guess!r}, *{traces!r}])
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes = [magpol.cli.dispatch(argv) for argv in runs]
            assert codes == [0] * len(runs), codes
            assert "converged = true" in out.getvalue(), out.getvalue()
            loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
            assert not loaded, loaded
            """
        )
        result = _run_fresh_python(["-c", script])
        assert result.returncode == 0, result.stderr


class TestSpectrum:
    def test_csv_shape_and_determinism(self, config_path, capsys):
        argv = ["spectrum", "--config", config_path, "--delta", "1.2"]
        assert dispatch(argv) == 0
        first = capsys.readouterr().out
        assert dispatch(argv) == 0
        second = capsys.readouterr().out
        lines = first.splitlines()
        assert len(lines) == 1202
        assert lines[0] == "detuning_mhz,re,im,magnitude,db"
        assert first == second

    def test_drive_override_changes_output(self, config_path, capsys):
        assert dispatch(["spectrum", "--config", config_path]) == 0
        base = capsys.readouterr().out
        assert dispatch(["spectrum", "--config", config_path, "--delta", "2"]) == 0
        pumped = capsys.readouterr().out
        assert base != pumped

    def test_output_file_matches_model(self, config_path, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = dispatch(
            [
                "spectrum",
                "--config",
                config_path,
                "--delta",
                "1.2",
                "--phi",
                "0.35pi",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        _, loaded = read_trace(out)
        drive = DriveField(ratio_delta=1.2, phase_phi=0.35 * math.pi)
        expected = trace(TRUTH, drive, DetuningGrid(-60.0, 60.0, 1201))
        np.testing.assert_array_equal(loaded.t, expected.t)

    def test_s1p_format_carries_drive_metadata(self, config_path, tmp_path, capsys):
        out = tmp_path / "trace.s1p"
        code = dispatch(
            [
                "spectrum",
                "--config",
                config_path,
                "--delta",
                "1.5",
                "--phi",
                "0.5pi",
                "--format",
                "s1p",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        info, loaded = read_trace(out)
        assert info.format is TraceFormat.TOUCHSTONE_S1P
        assert float(info.metadata["delta"]) == 1.5
        assert float(info.metadata["phi"]) == pytest.approx(0.5 * math.pi)
        assert float(info.metadata["phi0"]) == pytest.approx(math.pi)
        assert loaded.grid.count == 1201


class TestZero:
    def test_reports_crossing_point(self, config_path, capsys):
        code = dispatch(["zero", "--config", config_path, "--phase-eff", "1.35pi"])
        assert code == 0
        values = _parse_keyed_lines(capsys.readouterr().out)
        assert float(values["delta_star"]) == pytest.approx(2.8808843, rel=1e-6)
        assert float(values["detuning_mhz"]) == pytest.approx(1.0055739, rel=1e-6)
        assert float(values["residual"]) < 1e-12

    def test_on_axis_phase_needs_no_detuning(self, config_path, capsys):
        code = dispatch(["zero", "--config", config_path, "--phase-eff", "1.5pi"])
        assert code == 0
        values = _parse_keyed_lines(capsys.readouterr().out)
        assert float(values["delta_star"]) == pytest.approx(2.5852809, rel=1e-6)
        assert float(values["detuning_mhz"]) == pytest.approx(0.0, abs=1e-9)

    def test_ratio_cap_turns_root_away(self, config_path, capsys):
        code = dispatch(
            [
                "zero",
                "--config",
                config_path,
                "--phase-eff",
                "0.35pi",
                "--max-ratio",
                "100",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no zero-reflection point" in captured.err


class TestClassify:
    def test_resonant_probe_alone_is_transparent(self, config_path, capsys):
        assert dispatch(["classify", "--config", config_path, "--delta", "0"]) == 0
        assert capsys.readouterr().out == "MIT\n"

    def test_crossover_ratio_gives_null(self, config_path, capsys):
        code = dispatch(
            [
                "classify",
                "--config",
                config_path,
                "--delta",
                "0.3",
                "--phi",
                "0.35pi",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "Null\n"

    def test_strong_pump_amplifies(self, config_path, capsys):
        code = dispatch(
            [
                "classify",
                "--config",
                config_path,
                "--delta",
                "5.7",
                "--phi",
                "1.35pi",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "MIAMP\n"


class TestDelay:
    def test_methods_agree_on_smooth_trace(self, config_path, capsys):
        assert dispatch(["delay", "--config", config_path]) == 0
        analytic = capsys.readouterr().out
        code = dispatch(["delay", "--config", config_path, "--method", "fd"])
        assert code == 0
        fd = capsys.readouterr().out
        a_lines = analytic.splitlines()
        f_lines = fd.splitlines()
        assert a_lines[0] == "detuning_mhz,delay_us,magnitude"
        assert len(a_lines) == 1202
        a_delay = np.array([float(line.split(",")[1]) for line in a_lines[1:]])
        f_delay = np.array([float(line.split(",")[1]) for line in f_lines[1:]])
        assert float(np.max(np.abs(a_delay - f_delay))) < 1e-4

    def test_resonant_delay_value(self, config_path, capsys):
        assert dispatch(["delay", "--config", config_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = {float(line.split(",")[0]): float(line.split(",")[1]) for line in lines[1:]}
        assert row[0.0] == pytest.approx(0.014142574, rel=1e-6)


class TestMap:
    def test_ratio_axis_row_count(self, config_path, capsys):
        code = dispatch(
            [
                "map",
                "--config",
                config_path,
                "--axis",
                "ratio",
                "--values",
                "0,1,2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "ratio,detuning_mhz,re,im,magnitude,db"
        assert len(lines) == 1 + 3 * 1201

    def test_phase_axis_accepts_pi_shorthand(self, config_path, capsys):
        code = dispatch(
            [
                "map",
                "--config",
                config_path,
                "--axis",
                "phase",
                "--values",
                "0.35pi,1.35pi",
                "--delta",
                "1.2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 2 * 1201
        assert lines[1].startswith("1.0995574287564276,")

    def test_empty_values_rejected(self, config_path, capsys):
        code = dispatch(
            ["map", "--config", config_path, "--axis", "ratio", "--values", ","]
        )
        assert code == 1
        assert "no sweep values" in capsys.readouterr().err


class TestFit:
    def test_joint_fit_recovers_truth_from_files(self, tmp_path, capsys):
        # data synthesized from the true system; config starts the fit away from it
        grid = DetuningGrid(-60.0, 60.0, 241)
        paths = []
        for i, delta in enumerate((0.0, 1.0, 2.0)):
            drive = DriveField(ratio_delta=delta, phase_phi=0.35 * math.pi)
            sample = trace(TRUTH, drive, grid)
            path = tmp_path / f"run{i}.s1p"
            write_trace(
                sample,
                path,
                format=TraceFormat.TOUCHSTONE_S1P,
                metadata={"delta": repr(delta), "phi": "0.35pi"},
            )
            paths.append(str(path))
        config = _write_config(
            tmp_path / "guess.toml",
            g=8.7,
            kappa_c=102.0,
            kappa_m=1.5,
            kappa_c1=19.0,
        )
        argv = ["fit", "--config", config]
        for path in paths:
            argv += ["--data", path]
        assert dispatch(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        values = _parse_keyed_lines(captured.out)
        assert values["converged"] == "true"
        assert float(values["residual_norm"]) < 1e-10
        fitted_g = float(values["coupling_g"].split(" +/- ")[0])
        fitted_kc = float(values["kappa_c"].split(" +/- ")[0])
        assert fitted_g == pytest.approx(7.6, rel=1e-6)
        assert fitted_kc == pytest.approx(113.9, rel=1e-6)

    def test_free_list_override(self, tmp_path, capsys):
        grid = DetuningGrid(-60.0, 60.0, 241)
        drive = DriveField(ratio_delta=1.0, phase_phi=0.35 * math.pi)
        path = tmp_path / "run.s1p"
        write_trace(
            trace(TRUTH, drive, grid),
            path,
            format=TraceFormat.TOUCHSTONE_S1P,
            metadata={"delta": "1", "phi": "0.35pi"},
        )
        config = _write_config(tmp_path / "guess.toml", g=8.2)
        code = dispatch(
            [
                "fit",
                "--config",
                config,
                "--data",
                str(path),
                "--free",
                "coupling_g",
            ]
        )
        assert code == 0
        values = _parse_keyed_lines(capsys.readouterr().out)
        assert "kappa_c" not in values
        assert float(values["coupling_g"].split(" +/- ")[0]) == pytest.approx(
            7.6, rel=1e-6
        )

    def test_start_below_the_fit_floor_exits_1(self, tmp_path, capsys):
        # a valid device whose free rate starts below the fit's 1e-9 floor
        path = tmp_path / "run.s1p"
        grid = DetuningGrid(-60.0, 60.0, 241)
        write_trace(
            trace(TRUTH, DriveField(ratio_delta=0.0), grid),
            path,
            format=TraceFormat.TOUCHSTONE_S1P,
        )
        config = _write_config(tmp_path / "guess.toml", kappa_m=1e-12, kappa_m1=1e-13)
        argv = ["fit", "--config", config, "--data", str(path), "--free", "kappa_m"]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kappa_m" in captured.err and "floor" in captured.err


class TestOracleCheck:
    def test_small_batch_passes(self, config_path, capsys):
        code = dispatch(
            ["oracle-check", "--config", config_path, "--count", "3", "--seed", "2"]
        )
        assert code == 0
        values = _parse_keyed_lines(capsys.readouterr().out)
        assert values["count"] == "3"
        assert values["backend"] == "python"
        assert float(values["max_rel_error"]) < 1e-8

    def test_non_finite_error_fails(self, config_path, capsys, monkeypatch):
        # max() would drop the NaN; the check must count it as a failure
        monkeypatch.setattr(
            oracle, "oracle_transmission", lambda *args, **kwargs: complex("nan")
        )
        code = dispatch(["oracle-check", "--config", config_path, "--count", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert _parse_keyed_lines(captured.out)["max_rel_error"] == "nan"
        assert "exceeds tol" in captured.err

    def test_unresolvable_rate_span_is_a_domain_error(self, tmp_path, capsys):
        # about 1e312 integrator steps per decay time: not a finite double
        config = _write_config(
            tmp_path / "span.toml", g=1e10, kappa_m=1e-300, kappa_m1=1e-302
        )
        code = dispatch(["oracle-check", "--config", config, "--count", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: rates from")
        assert "too far apart to integrate" in captured.err

    def test_rejects_nonpositive_count(self, config_path, capsys):
        code = dispatch(
            ["oracle-check", "--config", config_path, "--count", "0"]
        )
        assert code == 1
        assert "count" in capsys.readouterr().err


class TestErrorPaths:
    def test_invalid_config_value(self, tmp_path, capsys):
        config = _write_config(tmp_path / "bad.toml", kappa_c1=200)
        assert dispatch(["spectrum", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "kappa_c1" in err

    @pytest.mark.parametrize(
        "command,key,value",
        [("classify", "g", "nan"), ("oracle-check", "kappa_c", "inf")],
    )
    def test_non_finite_config_value(self, tmp_path, capsys, command, key, value):
        config = _write_config(tmp_path / "bad.toml", **{key: value})
        assert dispatch([command, "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert f"key '{key}'" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["zero", "classify"])
    def test_overflowing_config_value(self, tmp_path, capsys, command):
        # finite, but large enough to overflow the response without the cap
        config = _write_config(
            tmp_path / "huge.toml", kappa_c=2.0 * MAX_MAGNITUDE
        )
        argv = [command, "--config", config] + (["--phase-eff=0.4pi"] if command == "zero" else [])
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: kappa_c must be at most")
        assert "key 'kappa_c', line 3" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--delta", "1e308"],
            ["classify", "--delta", "1e308"],
            ["map", "--axis", "ratio", "--values", "1e308"],
        ],
    )
    def test_overflowing_ratio_is_a_domain_error(self, config_path, capsys, argv):
        # finite, but the pump coefficient would overflow to inf and print nan
        assert dispatch([argv[0], "--config", config_path, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ratio_delta must be at most")

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["delay", "--delta", "1"], 0),
            (["delay", "--delta", "1", "--method", "fd"], 0),
            (["spectrum"], 1),
            (["spectrum", "--format", "s1p"], 1),
            (["map", "--axis", "ratio", "--values", "0,1"], 1),
            (["map", "--axis", "phase", "--values", "0,1pi"], 1),
            (["classify"], 1),
            (["zero", "--phase-eff", "1.35pi"], 1),
            (["oracle-check", "--count", "3"], 1),
        ],
        ids=[
            "delay", "delay-fd", "spectrum", "s1p", "map-ratio", "map-phase", "classify", "zero",
            "oracle-check",
        ],
    )
    def test_rates_near_1e_minus_170_print_no_nan(self, tmp_path, capsys, argv, expected):
        # |den| ~ 1e-340 underflows to 0 here; these commands used to print
        # nan rows (or MIABS) with exit 0
        config = _write_config(
            tmp_path / "tiny.toml",
            grid_span=1e-169,
            g=1e-170,
            kappa_c=1e-169,
            kappa_m=1e-170,
            kappa_c1=3e-170,
            kappa_m1=5e-171,
        )
        code = dispatch([argv[0], "--config", config, *argv[1:]])
        captured = capsys.readouterr()
        assert code == expected
        assert "Traceback" not in captured.err
        if code == 0:
            assert "nan" not in captured.out
        else:
            assert captured.out == ""
            assert captured.err.startswith(("error:", "no zero-reflection"))

    def test_missing_config_file(self, tmp_path, capsys):
        code = dispatch(["spectrum", "--config", str(tmp_path / "absent.toml")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unreadable_data_file(self, config_path, tmp_path, capsys):
        code = dispatch(
            ["fit", "--config", config_path, "--data", str(tmp_path / "absent.s1p")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

"""End-to-end command-line checks through dispatch()."""

import contextlib
import io
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import examples
import magpol
from magpol import cli
from magpol import fit as fit_mod
from magpol.cli import dispatch
from magpol.io import TraceFormat, read_trace, write_trace
from magpol import oracle
from magpol.model import MAX_MAGNITUDE, DriveField, SystemParams
from magpol.spectra import MAX_GRID_COUNT, DetuningGrid, trace

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
    def test_import_loads_names_on_first_use(self):
        script = textwrap.dedent(
            """
            import sys
            import magpol

            assert [m for m in sys.modules if m.startswith("magpol.")] == []
            for name in magpol.__all__:
                value = getattr(magpol, name)
                assert value.__module__.startswith("magpol."), name
                assert getattr(sys.modules[value.__module__], name) is value, name
            namespace = {}
            exec("from magpol import *", namespace)
            assert set(magpol.__all__) <= set(namespace)
            try:
                magpol.no_such_name
            except AttributeError as exc:
                assert "no_such_name" in str(exc)
            else:
                raise AssertionError("no AttributeError")
            """
        )
        result = _run_fresh_python(["-c", script])
        assert result.returncode == 0, result.stderr

    def test_cli_import_loads_no_handler_module(self):
        script = textwrap.dedent(
            """
            import sys
            from magpol.cli import main

            handlers = ["magpol.delay", "magpol.fit", "magpol.io", "magpol.oracle"]
            loaded = [m for m in handlers if m in sys.modules]
            assert not loaded, loaded
            """
        )
        result = _run_fresh_python(["-c", script])
        assert result.returncode == 0, result.stderr

    def test_classify_and_zero_load_neither_fit_nor_io(self, tmp_path):
        config = _write_config(tmp_path / "device.toml")
        script = textwrap.dedent(
            f"""
            import contextlib, io, sys
            import magpol.cli

            runs = [
                ["classify", "--config", {config!r}, "--delta", "2.1", "--phi", "1.35pi"],
                ["zero", "--config", {config!r}, "--phase-eff", "1.35pi"],
            ]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes = [magpol.cli.dispatch(argv) for argv in runs]
            assert codes == [0, 0], codes
            assert out.getvalue().split()[0] == "MIAMP", out.getvalue()
            loaded = [m for m in ("magpol.fit", "magpol.io") if m in sys.modules]
            assert not loaded, loaded
            """
        )
        result = _run_fresh_python(["-c", script])
        assert result.returncode == 0, result.stderr

    def test_no_command_imports_scipy(self, tmp_path):
        # magpol runs on numpy alone; scipy is a test-only reference.  Nor
        # does any command load numpy.ma, which np.median imports on first use.
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
                    ["spectrum", "--format", "s1p"],
                    ["delay"],
                    ["classify"],
                    ["classify", "--delta", "2.1", "--phi", "1.35pi"],
                    ["zero", "--phase-eff", "0.4pi"],
                    ["map", "--axis", "ratio", "--values", "0,1.5"],
                    ["oracle-check", "--count", "1"],
                )
            ]
            runs.append(["fit", "--config", {guess!r}, *{traces!r}])
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes = [magpol.cli.dispatch(argv) for argv in runs]
            assert codes == [0] * len(runs), codes
            assert "converged = true" in out.getvalue(), out.getvalue()
            loaded = [m for m in ("scipy", "numpy.ma") if m in sys.modules]
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

    def test_total_samples_are_bounded(self, tmp_path, capsys):
        # two values on the largest grid: refused before any trace is built
        config = _write_config(tmp_path / "wide.toml", grid_count=MAX_GRID_COUNT)
        code = dispatch(["map", "--config", config, "--axis", "ratio", "--values", "0,1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "exceeds" in captured.err

    def test_bound_is_on_values_times_samples(self, config_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_MAP_SAMPLES", 2 * 1201)
        argv = ["map", "--config", config_path, "--axis", "ratio", "--values"]
        assert dispatch([*argv, "0,1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 1201
        assert dispatch([*argv, "0,1,2"]) == 1
        assert capsys.readouterr().out == ""


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

    def test_step_whose_norm_overflows(self, config_path, tmp_path, capsys):
        # data 1e40 MHz off resonance: the first trial steps have norms past
        # the largest double, and np.linalg.norm once warned of the overflow
        path = tmp_path / "far.csv"
        path.write_text("detuning_mhz,re,im,magnitude,db\n1e40,0,0,0,0\n2e40,0,1e40,0,0\n")
        assert dispatch(["fit", "--config", config_path, "--data", str(path)]) == 0
        captured = capsys.readouterr()
        assert "converged = false" in captured.out and "nan" not in captured.out
        assert captured.err == "fit did not meet the convergence criterion\n"


class TestOracleCheck:
    RATES = {"g": 7.6, "kappa_c": 113.9, "kappa_m": 1.2, "kappa_c1": 21.8, "kappa_m1": 0.6}

    @pytest.mark.parametrize("k", [-600, -560, -200, -60, -30, -10, 40, 150])
    def test_stdout_is_scale_free(self, tmp_path, capsys, k):
        # every draw scales with the config's rates by 2**k exactly; k = -30
        # once exceeded the tolerance and k = -200 timed out
        outputs = []
        for power in (0, k):
            rates = {key: math.ldexp(value, power) for key, value in self.RATES.items()}
            config = _write_config(
                tmp_path / f"scaled{power}.toml", grid_span=math.ldexp(60.0, power), **rates
            )
            code = dispatch(["oracle-check", "--config", config])
            outputs.append(capsys.readouterr().out)
            assert code == 0
        assert outputs[1] == outputs[0]

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

    def test_overcoupled_config_draws_valid_devices(self, tmp_path, capsys):
        # eta_c = 0.88: the drawn kappa_c1 would often exceed the drawn
        # kappa_c, so it is clamped there
        config = _write_config(tmp_path / "over.toml", kappa_c=113.9, kappa_c1=100)
        code = dispatch(["oracle-check", "--config", config, "--count", "50"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert float(_parse_keyed_lines(captured.out)["max_rel_error"]) <= 1e-8

    def test_rejects_nonpositive_count(self, config_path, capsys):
        code = dispatch(
            ["oracle-check", "--config", config_path, "--count", "0"]
        )
        assert code == 1
        assert "count" in capsys.readouterr().err


class TestDriveOverrides:
    """Overrides from the command line and from s1p metadata apply as one
    change, so only the final drive is checked."""

    @staticmethod
    def _with_drive(path, **drive):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[drive]\n" + "".join(f"{k} = {v}\n" for k, v in drive.items()))
        return path

    def test_command_line_overrides_are_checked_as_the_final_drive(self, tmp_path, capsys):
        # phi0 = 1e308 with --phi 1e308 alone would overflow the phase sum;
        # with --phi0=-1e308 as well, the effective phase is 0
        config = self._with_drive(_write_config(tmp_path / "offset.toml"), phi0="1e308")
        argv = ["classify", "--config", config, "--delta", "1.2"]
        assert dispatch([*argv, "--phi", "1e308", "--phi0=-1e308"]) == 0
        label = capsys.readouterr().out
        assert dispatch([*argv, "--phi", "0", "--phi0", "0"]) == 0
        assert capsys.readouterr().out == label

    def test_metadata_overrides_are_checked_as_the_final_drive(self, tmp_path, capsys):
        config = self._with_drive(_write_config(tmp_path / "offset.toml"), phi0="1e308")
        sample = trace(TRUTH, DriveField.with_effective_phase(1.2, 0.0), DetuningGrid(-60.0, 60.0, 121))
        outputs = []
        for name, phi, phi0 in (("cancel", "1e308", "-1e308"), ("zero", "0", "0")):
            path = tmp_path / f"{name}.s1p"
            metadata = {"delta": "1.2", "phi": phi, "phi0": phi0}
            write_trace(sample, path, format=TraceFormat.TOUCHSTONE_S1P, metadata=metadata)
            assert dispatch(["fit", "--config", config, "--data", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert _parse_keyed_lines(outputs[0])["converged"] == "true"

    @pytest.mark.parametrize("method", ["analytic", "fd"])
    def test_delay_without_probe_exits_1(self, tmp_path, capsys, method):
        config = self._with_drive(_write_config(tmp_path / "dark.toml"), probe_amp="0")
        code = dispatch(["delay", "--config", config, "--delta", "1", "--method", method])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "transmission is undefined for probe_amp == 0" in captured.err


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
            (["spectrum"], 0),
            (["spectrum", "--format", "s1p"], 0),
            (["map", "--axis", "ratio", "--values", "0,1"], 0),
            (["map", "--axis", "phase", "--values", "0,1pi"], 0),
            (["classify"], 0),
            (["zero", "--phase-eff", "1.35pi"], 0),
            # the magnon offset is drawn at the config's own scale
            (["oracle-check", "--count", "3"], 0),
        ],
        ids=[
            "delay", "delay-fd", "spectrum", "s1p", "map-ratio", "map-phase", "classify", "zero",
            "oracle-check",
        ],
    )
    def test_rates_near_1e_minus_170_print_no_nan(self, tmp_path, capsys, argv, expected):
        # the unscaled |den| ~ 1e-340 underflows to 0 here; these commands
        # once printed nan rows (or MIABS) with exit 0
        config = _write_config(tmp_path / "tiny.toml", **self.TINY)
        code = dispatch([argv[0], "--config", config, *argv[1:]])
        captured = capsys.readouterr()
        assert code == expected
        assert "Traceback" not in captured.err
        if code == 0:
            assert "nan" not in captured.out
        else:
            assert captured.out == ""
            assert captured.err.startswith(("error:", "no zero-reflection"))

    TINY = dict(
        grid_span=1e-169, g=1e-170, kappa_c=1e-169, kappa_m=1e-170, kappa_c1=3e-170, kappa_m1=5e-171
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum"],
            ["map", "--axis", "ratio", "--values", "0,1"],
            ["map", "--axis", "phase", "--values", "0,1pi"],
            ["classify", "--delta", "1.2", "--phi", "0.35pi"],
            ["zero", "--phase-eff", "1.35pi"],
        ],
        ids=["spectrum", "map-ratio", "map-phase", "classify", "zero"],
    )
    def test_rates_near_1e_minus_170_equal_the_lifted_device(self, tmp_path, capsys, argv):
        # the same device scaled by 2**560 gives the same numbers, with every
        # detuning scaled by 2**560 (rows and values match field by field)
        outputs = []
        for k in (0, 560):
            values = {key: math.ldexp(value, k) for key, value in self.TINY.items()}
            config = _write_config(tmp_path / f"tiny{k}.toml", **values)
            assert dispatch([argv[0], "--config", config, *argv[1:]]) == 0
            outputs.append(capsys.readouterr().out)
        tiny, lifted = (text.replace(" = ", ",").splitlines() for text in outputs)
        assert len(tiny) == len(lifted) and "nan" not in outputs[0]
        for line, lifted_line in zip(tiny, lifted):
            for field, lifted_field in zip(line.split(","), lifted_line.split(",")):
                if field != lifted_field:
                    assert math.ldexp(float(field), 560) == float(lifted_field)

    def test_missing_config_file(self, tmp_path, capsys):
        code = dispatch(["spectrum", "--config", str(tmp_path / "absent.toml")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def _assert_data_error(self, argv, capsys, *fragments):
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        for fragment in fragments:
            assert fragment in captured.err

    def test_overflowing_db_sample(self, config_path, tmp_path, capsys):
        # 10**(7000/20) is not a finite double
        data = tmp_path / "loud.s1p"
        data.write_text("# MHZ S DB R 50\n1 -3 0\n2 7000 0\n3 -3 0\n")
        argv = ["fit", "--config", config_path, "--data", str(data)]
        self._assert_data_error(argv, capsys, "line 3")

    def test_sample_whose_square_overflows(self, config_path, tmp_path, capsys):
        # once converged = true with residual_norm = inf, and exit 0
        data = tmp_path / "huge.s1p"
        data.write_text("# HZ S MA R 50\n1 1e308 0\n2 1e308 0\n3 1e308 0\n")
        argv = ["fit", "--config", config_path, "--data", str(data)]
        self._assert_data_error(argv, capsys, "at most 1e+50 in magnitude")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            # math.cos(inf) raised ValueError, a traceback
            ("# MHZ S MA R 50\n1 0.5 0\n2 0.5 inf\n", "line 3"),
            # the grid's step inf - inf warned before the grid was rejected
            ("detuning_mhz,re,im,magnitude,db\n-inf,1,0,1,0\n0,1,0,1,0\n", "grid values must be finite"),
            ("# GHZ S RI R 50\n1 1 0\n1e306 1 0\n", "grid values must be finite"),
        ],
        ids=["infinite-angle", "infinite-detuning", "overflowing-frequency"],
    )
    def test_non_finite_axis_or_angle(self, config_path, tmp_path, capsys, text, fragment):
        data = tmp_path / "trace.s1p"
        data.write_text(text)
        argv = ["fit", "--config", config_path, "--data", str(data)]
        self._assert_data_error(argv, capsys, fragment)

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "latin1.toml"
        config.write_bytes("[system]\n# caf\u00e9\ng = 7.6\n".encode("latin-1"))
        self._assert_data_error(["spectrum", "--config", str(config)], capsys, "UTF-8")

    def test_data_file_that_is_not_utf8(self, config_path, tmp_path, capsys):
        data = tmp_path / "latin1.s1p"
        data.write_bytes("! caf\u00e9\n# MHZ S RI R 50\n1 0.5 0\n2 0.5 0\n".encode("latin-1"))
        argv = ["fit", "--config", config_path, "--data", str(data)]
        self._assert_data_error(argv, capsys, "UTF-8")

    def test_unreadable_data_file(self, config_path, tmp_path, capsys):
        code = dispatch(
            ["fit", "--config", config_path, "--data", str(tmp_path / "absent.s1p")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


# finite values of every kind: moderate, huge, tiny (down to subnormal) and
# zero, each with either sign
_MAGNITUDES = st.one_of(
    st.floats(0.0, 1e3),
    st.floats(1e40, 1e308),
    st.floats(5e-324, 1e-150),
)
_WILD = st.builds(lambda value, negative: -value if negative else value, _MAGNITUDES, st.booleans())
_TYPICAL = {
    ("system", "g"): 7.6,
    ("system", "kappa_c"): 113.9,
    ("system", "kappa_m"): 1.2,
    ("system", "kappa_c1"): 21.8,
    ("system", "kappa_m1"): 0.6,
    ("system", "cavity_freq"): 3.0,
    ("system", "magnon_freq"): -2.0,
    ("drive", "delta"): 1.2,
    ("drive", "phi"): 0.35 * math.pi,
    ("drive", "phi0"): math.pi,
    ("drive", "probe_amp"): 1.0,
    ("grid", "start"): -60.0,
    ("grid", "stop"): 60.0,
}
_UNSCALED = {"delta", "phi", "phi0", "probe_amp"}


@st.composite
def config_texts(draw):
    """A config of the reference device at an overall scale from 1e-300 to
    1e60, with a few of its values (up to three) replaced by wild ones."""
    scale = 10.0 ** draw(st.floats(-300.0, 60.0))
    wild = draw(st.sets(st.sampled_from(sorted(_TYPICAL)), max_size=3))
    sections = {"system": [], "drive": [], "grid": []}
    for (section, key), typical in _TYPICAL.items():
        value = typical if key in _UNSCALED else typical * scale
        if (section, key) in wild:
            value = draw(_WILD)
        sections[section].append(f"{key} = {value!r}")
    sections["grid"].append(f"count = {draw(st.integers(-1, 40))}")
    return "\n".join(
        f"[{name}]\n" + "\n".join(lines) for name, lines in sections.items()
    ) + "\n"


def _values_option(values):
    return "--values=" + ",".join(repr(value) for value in values)


# the --free value of fit: distinct parameter names, or a list that may
# also hold unknown or empty names, duplicates and stray whitespace
_NAMES = st.sampled_from(fit_mod.FREE_PARAMETER_NAMES)
_FREE_LISTS = st.one_of(
    st.lists(_NAMES, min_size=1, max_size=4, unique=True),
    st.lists(st.one_of(_NAMES, st.text(max_size=12)), max_size=5),
).map(",".join)


@given(
    config_texts(),
    st.lists(st.one_of(st.floats(0.0, 5.0), _WILD), min_size=1, max_size=3),
    st.lists(st.one_of(st.floats(-7.0, 7.0), _WILD), min_size=1, max_size=3),
    st.one_of(st.floats(-7.0, 7.0), _WILD),
    st.dictionaries(st.sampled_from(["delta", "phi", "phi0"]), _WILD),
    st.fixed_dictionaries(
        {
            "max_ratio": st.one_of(st.none(), _WILD),
            "count": st.integers(1, 3),
            "seed": st.integers(-3, 2**70),
            "tol": st.one_of(_WILD, st.floats(1e-12, 1e-3)),
            "free": _FREE_LISTS,
        }
    ),
)
@example(
    text="[system]\ng = 7.6e-161\nkappa_c = 1.139e-159\nkappa_m = 1.2e-161\n"
    "kappa_c1 = 2.18e-160\nkappa_m1 = 6e-162\ncavity_freq = 1.0\n"
    "magnon_freq = -2e-161\n[drive]\ndelta = 0.0\nphi = 0.0\n"
    "phi0 = 3.141592653589793\nprobe_amp = 1.0\n"
    "[grid]\nstart = -6e-160\nstop = 6e-160\ncount = 2\n",
    ratios=[0.0],
    phases=[0.0],
    phase_eff=0.0,
    overrides={},
    options={"max_ratio": None, "count": 1, "seed": 0, "tol": 1e-12, "free": "coupling_g"},
)
@example(
    text="[system]\ng = 7.6\nkappa_c = 113.9\nkappa_m = 1.2\nkappa_c1 = 21.8\n"
    "kappa_m1 = 0.6\ncavity_freq = 0.0\nmagnon_freq = 0.0\n[drive]\ndelta = 1.0\n"
    "phi = 1.0995574287564276\nphi0 = 1.3407807929942597e+154\nprobe_amp = 1.0\n"
    "[grid]\nstart = -60.0\nstop = 60.0\ncount = 21\n",
    ratios=[1.0],
    phases=[0.0],
    phase_eff=0.0,
    overrides={},
    options={
        "max_ratio": None, "count": 1, "seed": 0, "tol": 1e-12, "free": "coupling_g,phase_offset"
    },
)
@example(
    text="[system]\ng = 7.6e-18\nkappa_c = 1.0\nkappa_m = 1.2e-18\n"
    "kappa_c1 = 2.18e-17\nkappa_m1 = 6e-19\ncavity_freq = 3e-18\n"
    "magnon_freq = -2e-18\n[drive]\ndelta = 0.0\nphi = 0.0\n"
    "phi0 = 3.141592653589793\nprobe_amp = 1.0\n"
    "[grid]\nstart = -6e-17\nstop = 6e-17\ncount = 2\n",
    ratios=[0.0],
    phases=[0.0],
    phase_eff=0.0,
    overrides={},
    options={"max_ratio": None, "count": 1, "seed": 0, "tol": 1e-12, "free": "coupling_g"},
)
@example(
    text="[system]\ng = 7.6e-152\nkappa_c = 1.1390000000000002e-150\nkappa_m = 1.2e-152\n"
    "kappa_c1 = 2.18e-151\nkappa_m1 = 6e-153\ncavity_freq = 3e-152\n"
    "magnon_freq = -2e-152\n[drive]\ndelta = 1.2\nphi = 1.0995574287564276\n"
    "phi0 = 0.0\nprobe_amp = 1.0\n"
    "[grid]\nstart = -6e-151\nstop = 6e-151\ncount = 2\n",
    ratios=[0.0],
    phases=[0.0],
    phase_eff=0.0,
    overrides={},
    options={
        "max_ratio": None, "count": 1, "seed": 0, "tol": 1e-12, "free": "coupling_g,phase_offset"
    },
)
@settings(max_examples=examples(40), deadline=None)
def test_dispatch_property_on_generated_configs(
    text, ratios, phases, phase_eff, overrides, options
):
    """Exit 0, 1 or 2 and never an exception, on any config, drive
    overrides and option values; exit 0 prints no nan (the -inf dB sentinel
    is allowed).  Every drive-level command guards the same drive: when
    delay or classify exits 0, so does spectrum.  In the first example,
    fit's Jacobian on the trace holds only subnormals: its column norm once
    underflowed to zero and the standard error overflowed.  In the second,
    the free phase_offset is near 1.3e154, and the norm of the fit's
    parameter vector once overflowed.  In the third, a window of the
    oracle's integrator is about 1e20 steps, and its map once overflowed.
    In the fourth, every rate is near 1e-151 MHz, so the fit's squared
    column scale of coupling_g is near 1e301, and its damped diagonal once
    overflowed."""
    drive = [f"--{key}={value!r}" for key, value in overrides.items()]
    max_ratio = options["max_ratio"]
    codes = []
    with tempfile.TemporaryDirectory() as directory:
        config = os.path.join(directory, "device.toml")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(text)
        data = os.path.join(directory, "trace.s1p")
        sample = trace(TRUTH, DriveField(1.0, 0.35 * math.pi), DetuningGrid(-60.0, 60.0, 21))
        write_trace(sample, data, TraceFormat.TOUCHSTONE_S1P, metadata={"delta": "1"})
        commands = [
            ["spectrum", *drive],
            ["map", "--axis", "ratio", _values_option(ratios), *drive],
            ["map", "--axis", "phase", _values_option(phases), *drive],
            ["delay", *drive],
            ["delay", "--method", "fd", *drive],
            ["classify", *drive],
            ["zero", f"--phase-eff={phase_eff!r}"]
            + ([] if max_ratio is None else [f"--max-ratio={max_ratio!r}"]),
            [
                "oracle-check",
                f"--count={options['count']}",
                f"--seed={options['seed']}",
                f"--tol={options['tol']!r}",
            ],
            ["fit", "--data", data, f"--free={options['free']}"],
        ]
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch([command[0], "--config", config, *command[1:]])
            assert code in (0, 1, 2), (command, err.getvalue())
            if code == 0:
                assert "nan" not in out.getvalue(), (command, text)
            codes.append(code)
    if 0 in codes[3:6]:  # delay, delay fd or classify
        assert codes[0] == 0, (text, drive)  # spectrum


# number tokens of every kind the trace parsers take: moderate, huge, tiny
# and subnormal values of either sign, non-finite ones, and literals past
# the double range
_TOKENS = st.one_of(
    st.floats(-2.0, 2.0).map(repr),
    _WILD.map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "0", "-0.0"]),
)


@st.composite
def _number(draw, moderate):
    """Mostly a value from the moderate strategy, one time in eight any token."""
    if draw(st.integers(0, 7)) == 0:
        return draw(_TOKENS)
    return repr(draw(moderate))


@st.composite
def trace_files(draw):
    """The bytes of a generated trace file: csv or s1p in the RI, MA or DB
    layout with 1 to 3 rows and optional drive metadata, sometimes not
    UTF-8.  The axis is uniform and the samples share one scale of any
    size, but each number may be any token instead, so that whole sets of
    files often reach the fit."""
    rows = draw(st.integers(1, 3))
    start = draw(_number(st.floats(-1e3, 1e3)))
    step = draw(_number(st.floats(1e-3, 1e3)))
    axis = [repr(float(start) + k * float(step)) for k in range(rows)]
    scale = draw(_MAGNITUDES)
    sample = _number(st.floats(-2.0, 2.0).map(lambda value: value * scale))
    layout = draw(st.sampled_from(["csv", "RI", "MA", "DB"]))
    if layout == "csv":
        lines = ["detuning_mhz,re,im,magnitude,db"]
        lines += [",".join([x] + [draw(sample) for _ in range(4)]) for x in axis]
    else:
        unit = draw(st.sampled_from(["HZ", "KHZ", "MHZ", "GHZ"]))
        keys = draw(st.sets(st.sampled_from(["delta", "phi", "phi0"])))
        lines = [f"! {key} = {draw(_number(st.floats(0.0, 5.0)))}" for key in sorted(keys)]
        lines.append(f"# {unit} S {layout} R 50")
        lines += [f"{x} {draw(sample)} {draw(sample)}" for x in axis]
    text = "\n".join(lines) + "\n"
    encoding = draw(st.sampled_from(["utf-8"] * 6 + ["latin-1", "binary"]))
    if encoding == "latin-1":  # a comment that latin-1 writes as one byte, not UTF-8
        return ("! caf\u00e9\n" + text).encode("latin-1")
    if encoding == "binary":
        return draw(st.binary(min_size=1, max_size=60))
    return text.encode("utf-8")


@given(st.lists(trace_files(), min_size=1, max_size=3))
@example([b"# HZ S MA R 50\n1 1e308 0\n2 1e308 0\n3 1e308 0\n"])
@settings(max_examples=examples(50), deadline=None)
def test_dispatch_property_on_generated_trace_files(files):
    """fit on any trace files exits 0, 1 or 2 and never raises; exit 0
    prints no nan and a finite residual norm.  The example's squares
    overflow: it once printed converged = true and residual_norm = inf."""
    with tempfile.TemporaryDirectory() as directory:
        config = _write_config(pathlib.Path(directory) / "device.toml")
        argv = ["fit", "--config", config]
        for i, data in enumerate(files):
            path = os.path.join(directory, f"trace{i}")
            with open(path, "wb") as handle:
                handle.write(data)
            argv += ["--data", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
    assert code in (0, 1, 2), (files, err.getvalue())
    if code == 0:
        report = _parse_keyed_lines(out.getvalue())
        assert "nan" not in out.getvalue(), files
        assert math.isfinite(float(report["residual_norm"])), files

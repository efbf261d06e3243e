"""Command-line interface.

Subcommands: spectrum, map, delay, zero, classify, fit, oracle-check.
Data goes to stdout (or --output); diagnostics go to stderr.  Exit codes:
0 success, 1 domain or data error, 2 usage error.  Identical inputs produce
byte-identical output: numbers print with 17 significant digits and nothing
time- or locale-dependent is emitted.

delay, fit, io and oracle are imported inside the handlers that use them,
so a cold command loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import spectra
from .config import (
    _OVERRIDE_KEYS,
    RunConfig,
    _drive_metadata,
    _override_drive,
    _parse_value,
    _rows,
    load_config,
    parse_phase,
)
from .config import _format_number as _fmt
from .errors import MagpolError
from .model import DriveField, SystemParams, transmission

# The most samples a map renders: as many as the largest grid's spectrum.
_MAX_MAP_SAMPLES = spectra.MAX_GRID_COUNT


def _phase_arg(text: str) -> float:
    try:
        return parse_phase(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid phase {text!r}") from exc


def _finite_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _seed_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _positive_arg(text: str) -> float:
    value = _finite_arg(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _add_config_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", required=True, help="path to the run configuration file"
    )


def _add_drive_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", type=float, help="pump/probe amplitude ratio")
    parser.add_argument(
        "--phi", type=_phase_arg, help="pump phase (radians or e.g. 0.35pi)"
    )
    parser.add_argument(
        "--phi0", type=_phase_arg, help="calibration phase offset (default from config)"
    )


def _add_output_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", help="write data here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magpol",
        description="Two-tone cavity-magnon reflection spectra, delay, and fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="complex reflection trace on the grid")
    _add_config_option(p)
    _add_drive_overrides(p)
    _add_output_option(p)
    p.add_argument(
        "--format",
        choices=["csv", "s1p"],
        default="csv",
        help="output format (default csv)",
    )

    p = sub.add_parser("map", help="trace family swept over phase or ratio")
    _add_config_option(p)
    _add_drive_overrides(p)
    _add_output_option(p)
    p.add_argument("--axis", choices=["phase", "ratio"], required=True)
    p.add_argument(
        "--values",
        required=True,
        help="comma-separated sweep values (phases accept the pi shorthand)",
    )

    p = sub.add_parser("delay", help="group delay trace on the grid")
    _add_config_option(p)
    _add_drive_overrides(p)
    _add_output_option(p)
    p.add_argument("--method", choices=["analytic", "fd"], default="analytic")

    p = sub.add_parser("zero", help="zero-reflection point at a fixed phase")
    _add_config_option(p)
    p.add_argument(
        "--phase-eff", type=_phase_arg, required=True, help="effective pump phase"
    )
    p.add_argument("--max-ratio", type=_finite_arg, help="reject roots above this ratio")

    p = sub.add_parser("classify", help="interference regime label")
    _add_config_option(p)
    _add_drive_overrides(p)

    p = sub.add_parser("fit", help="fit system parameters to stored traces")
    _add_config_option(p)
    p.add_argument(
        "--data",
        action="append",
        required=True,
        help="trace file; repeat for a joint fit (drive read from s1p metadata)",
    )
    p.add_argument("--free", help="comma-separated free parameter names")

    p = sub.add_parser("oracle-check", help="compare analytic and integrated responses")
    _add_config_option(p)
    p.add_argument("--count", type=int, default=20, help="number of random draws")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument(
        "--tol", type=_positive_arg, default=1e-8, help="relative error bound"
    )

    return parser


def _drive(config: RunConfig, args: argparse.Namespace) -> DriveField:
    """The config's drive with the --delta/--phi/--phi0 given on the command line."""
    overrides = {
        key: value for key in _OVERRIDE_KEYS if (value := getattr(args, key)) is not None
    }
    return _override_drive(config.drive, overrides)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _cmd_spectrum(config: RunConfig, args: argparse.Namespace) -> int:
    from . import io as io_mod

    drive = _drive(config, args)
    trace = spectra.trace(config.system, drive, config.grid)
    if args.format == "s1p":
        text = io_mod.render_touchstone(
            trace, cavity_freq=config.system.cavity_freq, metadata=_drive_metadata(drive)
        )
    else:
        text = io_mod.render_csv(trace)
    _emit(text, args.output)
    return 0


def _cmd_map(config: RunConfig, args: argparse.Namespace) -> int:
    drive = _drive(config, args)
    axis = spectra.SweepAxis(args.axis)
    tokens = [token for token in args.values.split(",") if token.strip()]
    if not tokens:
        raise MagpolError("no sweep values given")
    if len(tokens) * config.grid.count > _MAX_MAP_SAMPLES:
        raise MagpolError(
            f"a map of {len(tokens)} values on {config.grid.count} samples exceeds "
            f"{_MAX_MAP_SAMPLES} samples"
        )
    key = "phi" if axis is spectra.SweepAxis.PHASE else "delta"
    try:
        values = [_parse_value(key, token) for token in tokens]
    except ValueError as exc:
        raise MagpolError(f"invalid sweep value: {exc}") from exc
    sweep = spectra.sweep(config.system, drive, axis, values, config.grid)
    lines = [f"{args.axis},detuning_mhz,re,im,magnitude,db"]
    # each axis value and detuning is formatted once, not once per row
    detunings = [_fmt(value) for value in sweep.grid.values.tolist()]
    for value, trace in zip(sweep.axis_values.tolist(), sweep.traces):
        t = trace.t
        head = _fmt(value)
        rows = _rows([t.real, t.imag, trace.magnitude, trace.db])
        lines += [f"{head},{detuning},{row}" for detuning, row in zip(detunings, rows)]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_delay(config: RunConfig, args: argparse.Namespace) -> int:
    from . import delay as delay_mod

    drive = _drive(config, args)
    method = "analytic" if args.method == "analytic" else "finite-difference"
    trace = delay_mod.group_delay(config.system, drive, config.grid, method=method)
    lines = ["detuning_mhz,delay_us,magnitude"]
    lines += _rows([trace.grid.values, trace.delay, np.abs(trace.t)])
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_zero(config: RunConfig, args: argparse.Namespace) -> int:
    from . import delay as delay_mod

    point = delay_mod.find_zero_reflection(
        config.system, args.phase_eff, max_ratio=args.max_ratio
    )
    if point is None:
        print("no zero-reflection point for this phase", file=sys.stderr)
        return 1
    sys.stdout.write(
        "delta_star = {}\ndetuning_mhz = {}\nresidual = {}\n".format(
            _fmt(point.ratio_delta), _fmt(point.detuning), _fmt(point.residual)
        )
    )
    return 0


def _cmd_classify(config: RunConfig, args: argparse.Namespace) -> int:
    drive = _drive(config, args)
    label = spectra.classify_regime(config.system, drive, grid=config.grid)
    sys.stdout.write(label.value + "\n")
    return 0


def _observation_from_file(path: str, config: RunConfig):
    """The fit.FitObservation of one trace file, its drive from the file's metadata."""
    from . import fit as fit_mod
    from . import io as io_mod

    info, trace = io_mod.read_trace(path, cavity_freq=config.system.cavity_freq)
    meta = info.metadata
    try:
        overrides = {key: _parse_value(key, meta[key]) for key in _OVERRIDE_KEYS if key in meta}
    except ValueError as exc:
        raise MagpolError(f"bad drive metadata in {path}: {exc}") from exc
    drive = _override_drive(config.drive, overrides)
    return fit_mod.FitObservation(grid=trace.grid, values=trace.t, drive=drive)


def _cmd_fit(config: RunConfig, args: argparse.Namespace) -> int:
    from . import fit as fit_mod

    observations = [_observation_from_file(path, config) for path in args.data]
    if args.free is None:
        free = fit_mod.DEFAULT_FREE
    else:
        free = tuple(name.strip() for name in args.free.split(",") if name.strip())
    problem = fit_mod.FitProblem(observations=tuple(observations), free=free)
    result = fit_mod.fit_parameters(problem, config.system)
    lines = [
        "converged = " + ("true" if result.converged else "false"),
        "residual_norm = " + _fmt(result.residual_norm),
    ]
    for name in result.free:
        lines.append(
            f"{name} = {_fmt(result.values[name])} +/- {_fmt(result.stderr[name])}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    if not result.converged:
        print("fit did not meet the convergence criterion", file=sys.stderr)
    return 0


def _cmd_oracle_check(config: RunConfig, args: argparse.Namespace) -> int:
    from . import oracle as oracle_mod

    if args.count < 1:
        raise MagpolError("count must be at least 1")
    system = config.system
    # The magnon offset is drawn in +-5 MHz for a device whose largest rate
    # lies in [64, 128) MHz, like the example's kappa_c = 113.9; any other
    # device scales that draw by the power of two that takes its largest
    # rate there, so the draws scale with the config exactly.
    shift = math.frexp(max(system.coupling_g, system.kappa_c, system.kappa_m))[1] - 7
    rng = np.random.default_rng(args.seed)
    errors = []
    for _ in range(args.count):
        magnon_freq = math.ldexp(rng.uniform(-5.0, 5.0), shift)
        coupling_g = system.coupling_g * rng.uniform(0.5, 2.0)
        kappa_c = system.kappa_c * rng.uniform(0.5, 2.0)
        kappa_m = system.kappa_m * rng.uniform(0.5, 2.0)
        # the external rates are drawn independently of the totals, so clamp
        # them at the drawn totals to keep every draw a valid device
        kappa_c1 = min(system.kappa_c1 * rng.uniform(0.2, 1.0), kappa_c)
        kappa_m1 = min(system.kappa_m1 * rng.uniform(0.2, 1.0), kappa_m)
        params = SystemParams(
            0.0, magnon_freq, coupling_g, kappa_c, kappa_m, kappa_c1, kappa_m1
        )
        drive = DriveField(
            ratio_delta=rng.uniform(0.0, 3.0),
            phase_phi=rng.uniform(0.0, 2.0 * math.pi),
        )
        detuning = rng.uniform(-2.0 * params.kappa_c, 2.0 * params.kappa_c)
        probe_freq = params.cavity_freq - detuning
        exact = transmission(params, drive, probe_freq)
        integrated = oracle_mod.oracle_transmission(params, drive, probe_freq)
        errors.append(abs(integrated - exact) / max(abs(exact), 1e-30))
    worst = float(np.max(errors))  # NaN propagates, unlike max()
    sys.stdout.write(
        "backend = {}\ncount = {}\nmax_rel_error = {}\n".format(
            oracle_mod.kernel_backend(), args.count, _fmt(worst)
        )
    )
    if not worst <= args.tol:
        print(f"max relative error {worst:.3e} exceeds tol {args.tol:.3e}", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "map": _cmd_map,
    "delay": _cmd_delay,
    "zero": _cmd_zero,
    "classify": _cmd_classify,
    "fit": _cmd_fit,
    "oracle-check": _cmd_oracle_check,
}


def dispatch(argv) -> int:
    """Run one command; returns the process exit code instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        config = load_config(args.config)
        return _HANDLERS[args.command](config, args)
    except MagpolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))

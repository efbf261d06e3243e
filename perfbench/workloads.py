"""The four workloads: inputs made from the seed, one op, and its check.

A workload exposes `kind(i)`, `run(api, i)`, `check(api, i, out)` (raises
`CheckFailed` on a wrong output), `finish(records)` for checks that need the
whole run, `warm_up(api)` and `peak_rss_mb()`.  Op i always gets the same
inputs for a given seed, so a traced pass can repeat an untraced one exactly.
Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import replace

import numpy as np

import magpol
from harness import CheckFailed, CliRun, expect, self_peak_rss_mb

REFERENCE = magpol.SystemParams(
    cavity_freq=0.0,
    magnon_freq=0.0,
    coupling_g=7.6,
    kappa_c=113.9,
    kappa_m=1.2,
    kappa_c1=21.8,
    kappa_m1=0.6,
)
GRID = magpol.DetuningGrid(-60.0, 60.0, 1201)
RATES = ("coupling_g", "kappa_c", "kappa_m", "kappa_c1", "kappa_m1")


def fmt(value: float) -> str:
    """Shortest text that parses back to the same float."""
    return format(value, ".17g")


def perturbed(params, rng, spread):
    """params with each rate scaled by an independent U(1 - spread, 1 + spread)."""
    return replace(
        params,
        **{name: getattr(params, name) * rng.uniform(1.0 - spread, 1.0 + spread) for name in RATES},
    )


def close(actual, expected, rtol=1e-12, atol=1e-14) -> bool:
    actual = np.asarray(actual)
    return actual.shape == np.shape(expected) and bool(
        np.allclose(actual, expected, rtol=rtol, atol=atol)
    )


class Workload:
    kinds: tuple[str, ...] = ()

    def __init__(self, ctx, stats):
        self.ctx = ctx
        self.stats = stats  # counters shared with the per-layer metrics

    def kind(self, index: int) -> str:
        return self.kinds[index % len(self.kinds)]

    def warm_up(self, api) -> None:
        for index in range(len(self.kinds)):
            self.check(api, index, self.run(api, index))

    def finish(self, records):
        return records

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


class Scan(Workload):
    """The paper's analysis of one seeded device per op."""

    name = "scan"
    kinds = ("scan",)
    RATIOS = np.round(np.arange(0.0, 4.0001, 0.05), 10)  # 81 pump ratios
    SCAN_GRID = magpol.DetuningGrid(-10.0, 10.0, 4001)
    SWEEP_RATIOS = np.linspace(0.0, 4.0, 41)
    TABLE = [(r, s * 0.1 * math.pi) for r in (0.2, 1.0, 2.0, 3.0) for s in (-1, 0, 1)]

    def __init__(self, ctx, stats, api):
        super().__init__(ctx, stats)
        rng = np.random.default_rng(ctx.seed)
        self.pool = [
            (perturbed(REFERENCE, rng, 0.10), rng.uniform(1.25, 1.45) * math.pi)
            for _ in range(4 if ctx.tiny else 64)
        ]

    def run(self, api, index):
        params, phase = self.pool[index % len(self.pool)]
        extremes = api.delay_extremum_vs_ratio(params, phase, self.RATIOS, self.SCAN_GRID)
        transition = api.detect_abrupt_transition(self.RATIOS, extremes)
        zero = api.find_zero_reflection(params, phase)
        sweep = api.sweep(
            params,
            magpol.DriveField.with_effective_phase(0.0, phase),
            magpol.SweepAxis.RATIO,
            self.SWEEP_RATIOS,
            GRID,
        )
        labels = [
            api.classify_regime(params, magpol.DriveField.with_effective_phase(r, phase + dp))
            for r, dp in self.TABLE
        ]
        return transition, zero, sweep, labels

    def check(self, api, index, out):
        """Criterion 02 on this device: a zero with residual and independent
        |t| below 1e-10, and the transition within 0.05 of it when it lies
        inside the scanned ratios."""
        params, phase = self.pool[index % len(self.pool)]
        transition, zero, sweep, labels = out
        expect(zero is not None, "no zero-reflection point")
        self.stats["delay.zero_residual"].append(zero.residual)
        expect(zero.residual < 1e-10, f"zero residual {zero.residual:.3e}")
        drive = magpol.DriveField.with_effective_phase(zero.ratio_delta, phase)
        t = api.transmission(params, drive, params.cavity_freq - zero.detuning)
        expect(abs(t) < 1e-10, f"|t| at the zero is {abs(t):.3e}")
        if zero.ratio_delta <= self.RATIOS[-1]:
            expect(transition is not None, "no transition though the zero is in range")
            gap = abs(transition.critical_ratio - zero.ratio_delta)
            expect(gap <= 0.05 + 1e-9, f"transition {gap:.3f} from the zero")
        expect(len(sweep.traces) == self.SWEEP_RATIOS.size, "sweep size")
        expect(all(isinstance(label, magpol.RegimeLabel) for label in labels), "labels")


class Fit(Workload):
    """Joint fits of three noisy synthetic traces, three cases in rotation."""

    name = "fit"
    kinds = ("complex4", "complex9", "magnitude4")
    FREE4 = ("coupling_g", "kappa_c", "kappa_m", "kappa_c1")
    FREE = {
        "complex4": FREE4,
        "complex9": RATES + ("cavity_freq", "magnon_freq", "amplitude_scale", "phase_slope"),
        "magnitude4": FREE4,
    }
    SNR_DB = {"complex4": 40.0, "complex9": 30.0, "magnitude4": 40.0}
    DRIVES = tuple(
        magpol.DriveField(ratio_delta=d, phase_phi=0.35 * math.pi) for d in (0.0, 1.0, 2.0)
    )
    # criterion 10's starting point
    INITIAL = replace(
        REFERENCE,
        coupling_g=7.6 * 1.15,
        kappa_c=113.9 * 0.9,
        kappa_m=1.2 * 1.2,
        kappa_c1=21.8 * 0.9,
    )
    RECOVERED = ("coupling_g", "kappa_c", "kappa_m")

    def __init__(self, ctx, stats, api):
        super().__init__(ctx, stats)
        rng = np.random.default_rng(ctx.seed)
        size = 2 if ctx.tiny else 32
        self.truth = REFERENCE
        self.pool = {
            kind: [self._problem(api, kind, rng) for _ in range(size)] for kind in self.kinds
        }
        self.errors = {}  # op index -> relative errors of RECOVERED (complex4 only)

    def _problem(self, api, kind, rng):
        noise = magpol.NoiseModel(snr_db=self.SNR_DB[kind])
        observations = tuple(
            api.synthesize_trace(REFERENCE, drive, GRID, noise=noise, rng=rng)
            for drive in self.DRIVES
        )
        if kind == "magnitude4":
            observations = tuple(
                magpol.FitObservation(
                    grid=o.grid, values=np.abs(o.values), drive=o.drive, has_phase=False
                )
                for o in observations
            )
        return magpol.FitProblem(observations=observations, free=self.FREE[kind])

    def run(self, api, index):
        problems = self.pool[self.kind(index)]
        return api.fit_parameters(problems[(index // len(self.kinds)) % len(problems)], self.INITIAL)

    def check(self, api, index, result):
        self.stats["fit.nfev"].append(result.n_evaluations)
        self.stats["fit.converged"].append(result.converged)
        values = np.array([result.values[name] for name in result.free])
        expect(np.all(np.isfinite(values)), "non-finite fitted values")
        expect(math.isfinite(result.residual_norm), "non-finite residual")
        if self.kind(index) == "complex4":
            self.errors[index] = [
                abs(result.values[n] - getattr(self.truth, n)) / getattr(self.truth, n)
                for n in self.RECOVERED
            ]

    def finish(self, records):
        """Criterion 10 over the run: the median errors of g, kappa_c and
        kappa_m in the complex4 fits are each under 2%; otherwise every
        complex4 op of the run counts as failed."""
        done = [self.errors[r.index] for r in records if r.kind == "complex4" and r.index in self.errors]
        if done and np.all(np.median(done, axis=0) < 0.02):
            return records
        return [replace(r, ok=False) if r.kind == "complex4" else r for r in records]


class Oracle(Workload):
    """One time-domain integration per op, from criterion 08's distribution."""

    name = "oracle"
    kinds = ("draw",)

    def __init__(self, ctx, stats, api):
        super().__init__(ctx, stats)
        self.pool = self.stratified_pool(np.random.default_rng(ctx.seed), 4 if ctx.tiny else 64)

    @staticmethod
    def _inputs(u):
        """Criterion 08's draw from nine uniforms per row of u, as arrays."""
        kappa_c = 113.9 * (0.5 + 1.5 * u[:, 2])
        return {
            "magnon_freq": -5.0 + 10.0 * u[:, 0],
            "coupling_g": 7.6 * (0.5 + 1.5 * u[:, 1]),
            "kappa_c": kappa_c,
            "kappa_m": 1.2 * (0.5 + 1.5 * u[:, 3]),
            "kappa_c1": 21.8 * (0.2 + 0.8 * u[:, 4]),
            "kappa_m1": 0.6 * (0.2 + 0.8 * u[:, 5]),
            "ratio_delta": 3.0 * u[:, 6],
            "phase_phi": 2.0 * math.pi * u[:, 7],
            "detuning": (-2.0 + 4.0 * u[:, 8]) * kappa_c,
        }

    @classmethod
    def _steps_per_decay(cls, u):
        """Fastest rate or detuning over the slowest decay rate.  The
        integrator's step count per decay time is proportional to it, so it
        sets most of a draw's cost; it spans about 10x over criterion 08."""
        x = cls._inputs(u)
        fastest = np.max(
            [x["kappa_c"], x["kappa_m"], x["coupling_g"], np.abs(x["detuning"]),
             np.abs(x["detuning"] + x["magnon_freq"])],
            axis=0,
        )
        return fastest / np.minimum(x["kappa_c"], x["kappa_m"])

    @classmethod
    def stratified_pool(cls, rng, size):
        """`size` draws from criterion 08's distribution, one from each of
        `size` equally likely strata of `_steps_per_decay`.

        Each draw still comes from criterion 08's distribution (given its
        stratum), but a pool's mix of cheap and costly draws, and so the
        run's throughput and latency percentiles, no longer depend on the
        seed.  The strata are visited in bit-reversed order so that the ops a
        run gets through before time is up cover the whole cost range.
        """
        reference = cls._steps_per_decay(np.random.default_rng(0).random((20_000, 9)))
        edges = np.quantile(reference, np.arange(1, size) / size)
        chosen = [None] * size
        while any(row is None for row in chosen):
            u = rng.random((256, 9))
            for row, stratum in zip(u, np.searchsorted(edges, cls._steps_per_decay(u))):
                if chosen[stratum] is None:
                    chosen[stratum] = row
        bits = (size - 1).bit_length()
        order = sorted(range(size), key=lambda k: int(format(k, f"0{bits}b")[::-1], 2))
        x = cls._inputs(np.array([chosen[k] for k in order]))
        pool = []
        for i in range(size):
            v = {name: float(values[i]) for name, values in x.items()}
            params = magpol.SystemParams(
                cavity_freq=0.0,
                **{name: v[name] for name in ("magnon_freq",) + RATES},
            )
            drive = magpol.DriveField(ratio_delta=v["ratio_delta"], phase_phi=v["phase_phi"])
            pool.append((params, drive, params.cavity_freq - v["detuning"]))
        return pool

    def warm_up(self, api):
        api.oracle_transmission(REFERENCE, magpol.DriveField(ratio_delta=1.0, phase_phi=0.3), 0.0)

    def run(self, api, index):
        try:
            return api.oracle_transmission(*self.pool[index % len(self.pool)])
        except magpol.IntegrationTimeout:
            self.stats["oracle.timeouts"].append(1)
            raise

    def check(self, api, index, integrated):
        """Criterion 08: relative error against the closed form below 1e-8."""
        exact = api.transmission(*self.pool[index % len(self.pool)])
        error = abs(integrated - exact) / max(abs(exact), 1e-30)
        self.stats["oracle.rel_err"].append(error)
        expect(error < 1e-8, f"relative error {error:.3e}")


def _table(text: str, header: str) -> np.ndarray:
    lines = text.split("\n")
    expect(lines[0] == header and lines[-1] == "", "CSV header or trailing newline")
    rows = lines[1:-1]
    return np.array(",".join(rows).split(","), dtype=float).reshape(len(rows), -1)


def _pairs(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines())


class CliCold(Workload):
    """One cold `magpol` process per op, cycling through a fixed command mix."""

    name = "cli-cold"
    kinds = ("spectrum", "spectrum_s1p", "delay", "classify", "zero", "map", "fit")
    CONFIG = os.path.join("configs", "example_device.toml")

    def __init__(self, ctx, stats, api):
        super().__init__(ctx, stats)
        self.config_path = os.path.join(ctx.root, self.CONFIG)
        self.config = api.load_config(self.config_path)
        self.s1p_out = os.path.join(ctx.tmp, "spectrum.s1p")
        self.max_rss_kb = 0
        # three noisy traces of a seeded device near the configured one, for `fit`
        rng = np.random.default_rng(ctx.seed)
        system = self.config.system
        truth = perturbed(system, rng, 0.10)
        self.fit_files = []
        for k, delta in enumerate((0.0, 1.0, 2.0)):
            drive = replace(self.config.drive, ratio_delta=delta, phase_phi=0.35 * math.pi)
            obs = api.synthesize_trace(
                truth, drive, self.config.grid, noise=magpol.NoiseModel(snr_db=40.0), rng=rng
            )
            path = os.path.join(ctx.tmp, f"fit-{k}.s1p")
            api.write_trace(
                magpol.SpectrumTrace(grid=obs.grid, t=obs.values),
                path,
                magpol.TraceFormat.TOUCHSTONE_S1P,
                cavity_freq=system.cavity_freq,
                metadata={
                    "delta": fmt(drive.ratio_delta),
                    "phi": fmt(drive.phase_phi),
                    "phi0": fmt(drive.phase_offset),
                },
            )
            self.fit_files.append(path)
        observations = []
        for path in self.fit_files:
            info, trace = api.read_trace(path, cavity_freq=system.cavity_freq)
            meta = info.metadata
            drive = replace(
                self.config.drive,
                ratio_delta=float(meta["delta"]),
                phase_phi=api.parse_phase(meta["phi"]),
                phase_offset=api.parse_phase(meta["phi0"]),
            )
            observations.append(
                magpol.FitObservation(grid=trace.grid, values=trace.t, drive=drive)
            )
        self.expected_fit = api.fit_parameters(
            magpol.FitProblem(observations=tuple(observations)), system
        )

    def inputs(self, index):
        """(argv, drive, phase_eff, map phases) for op `index`."""
        rng = np.random.default_rng([self.ctx.seed, index])
        delta = rng.uniform(0.0, 3.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        phase_eff = rng.uniform(1.25, 1.45) * math.pi
        phases = rng.uniform(0.0, 2.0 * math.pi, 21)
        drive = replace(self.config.drive, ratio_delta=delta, phase_phi=phi)
        overrides = ["--delta", fmt(delta), "--phi", fmt(phi)]
        base = ["--config", self.config_path]
        kind = self.kind(index)
        argv = {
            "spectrum": ["spectrum", *base, *overrides],
            "spectrum_s1p": ["spectrum", *base, *overrides, "--format", "s1p", "--output", self.s1p_out],
            "delay": ["delay", *base, *overrides],
            "classify": ["classify", *base, *overrides],
            "zero": ["zero", *base, "--phase-eff", fmt(phase_eff)],
            "map": ["map", *base, "--delta", fmt(delta), "--axis", "phase",
                    "--values", ",".join(fmt(p) for p in phases)],
            "fit": ["fit", *base, *(a for path in self.fit_files for a in ("--data", path))],
        }[kind]
        if kind == "map":
            drive = replace(self.config.drive, ratio_delta=delta)
        return argv, drive, phase_eff, phases

    def warm_up(self, api):
        self.check(api, 0, self.run(api, 0))
        self.max_rss_kb = 0

    def run(self, api, index):
        result = api.cold(self.inputs(index)[0])
        self.max_rss_kb = max(self.max_rss_kb, result.max_rss_kb)
        return result

    def warm(self, api, index):
        """The same command in-process through `magpol.cli.dispatch`."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.dispatch(self.inputs(index)[0])
        return CliRun(code, out.getvalue(), err.getvalue(), 0)

    def peak_rss_mb(self):
        return self.max_rss_kb * 1024 / 1e6

    def check(self, api, index, result):
        """Exit code 0, and stdout (or the written file) parses and agrees
        with the library call the command wraps."""
        expect(result.returncode == 0, f"exit {result.returncode}: {result.stderr[-200:]}")
        kind = self.kind(index)
        argv, drive, phase_eff, phases = self.inputs(index)
        out = result.stdout
        system, grid = self.config.system, self.config.grid
        written = len(out.encode("utf-8"))
        if kind == "spectrum":
            table = _table(out, "detuning_mhz,re,im,magnitude,db")
            t = api.trace(system, drive, grid).t
            expect(close(table[:, 0], grid.values), "detunings")
            expect(close(table[:, 1], t.real) and close(table[:, 2], t.imag), "trace values")
        elif kind == "spectrum_s1p":
            expect(out == "", "stdout not empty with --output")
            written += os.path.getsize(self.s1p_out)
            info, stored = api.read_trace(self.s1p_out, cavity_freq=system.cavity_freq)
            expect(info.metadata.get("delta") == fmt(drive.ratio_delta), "s1p metadata")
            expect(close(stored.t, api.trace(system, drive, grid).t), "s1p values")
        elif kind == "delay":
            table = _table(out, "detuning_mhz,delay_us,magnitude")
            expect(close(table[:, 1], api.group_delay(system, drive, grid).delay), "delay values")
        elif kind == "classify":
            label = api.classify_regime(system, drive, grid=grid)
            expect(out == label.value + "\n", f"label {out.strip()!r} != {label.value!r}")
        elif kind == "zero":
            values = _pairs(out)
            point = api.find_zero_reflection(system, phase_eff)
            expect(point is not None, "library finds no zero")
            expect(close(float(values["delta_star"]), point.ratio_delta), "delta_star")
            expect(close(float(values["detuning_mhz"]), point.detuning), "detuning")
            expect(float(values["residual"]) < 1e-10, "zero residual")
        elif kind == "map":
            table = _table(out, "phase,detuning_mhz,re,im,magnitude,db")
            swept = api.sweep(system, drive, magpol.SweepAxis.PHASE, phases, grid)
            t = np.concatenate([trace.t for trace in swept.traces])
            expect(close(table[:, 0], np.repeat(phases, grid.count)), "map axis")
            expect(close(table[:, 2], t.real) and close(table[:, 3], t.imag), "map values")
        elif kind == "fit":
            values = _pairs(out)
            fit = self.expected_fit
            expect(values["converged"] == ("true" if fit.converged else "false"), "converged")
            expect(close(float(values["residual_norm"]), fit.residual_norm, rtol=1e-9), "residual")
            for name in fit.free:
                expect(close(float(values[name].split(" +/- ")[0]), fit.values[name], rtol=1e-9), name)
        else:
            raise CheckFailed(f"unknown command kind {kind}")
        self.stats[f"io.bytes_out.{kind}"].append(written)


WORKLOADS = {cls.name: cls for cls in (CliCold, Scan, Fit, Oracle)}

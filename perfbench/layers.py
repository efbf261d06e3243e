"""Per-layer metrics of a traced run, and the probes that give each one samples.

The layers are magpol's modules plus `import` (a cold `import magpol`).  A
metric is the median duration of the spans around the benchmark's calls into
one public function, or a count kept at the same call sites.  The traced loop
supplies the spans of the layers its workload uses; `run_probes` then adds
samples for the rest, so each traced run reports every metric.
"""

from __future__ import annotations

import math
import os
import statistics
from types import SimpleNamespace

import magpol
from harness import run_loop, run_python
from workloads import GRID, REFERENCE, CliCold, Fit, Scan

COMMANDS = CliCold.kinds

# name -> (unit, better); the same list is in BENCHMARK.json
PER_LAYER = {
    "import.cold_s": ("s", "lower"),
    "import.python_s": ("s", "lower"),
    "config.load_ms": ("ms", "lower"),
    **{f"cli.{c}.warm_ms": ("ms", "lower") for c in COMMANDS},
    **{f"cli.{c}.cold_ms": ("ms", "lower") for c in COMMANDS},
    "io.render_csv_ms": ("ms", "lower"),
    "io.render_touchstone_ms": ("ms", "lower"),
    "io.read_trace_ms": ("ms", "lower"),
    "io.bytes_out": ("bytes", "lower"),
    "spectra.trace_us": ("us", "lower"),
    "spectra.sweep_ms": ("ms", "lower"),
    "spectra.classify_ms": ("ms", "lower"),
    "spectra.samples_per_s": ("1/s", "higher"),
    "delay.extremum_ms": ("ms", "lower"),
    "delay.group_delay_us": ("us", "lower"),
    "delay.zero_us": ("us", "lower"),
    "delay.zero_residual_max": ("1", "lower"),
    "fit.complex4_ms": ("ms", "lower"),
    "fit.complex9_ms": ("ms", "lower"),
    "fit.magnitude4_ms": ("ms", "lower"),
    "fit.nfev_per_fit": ("count", "lower"),
    "fit.converged_ratio": ("ratio", "higher"),
    "oracle.draw_ms": ("ms", "lower"),
    "oracle.timeouts": ("count", "lower"),
    "oracle.max_rel_err": ("1", "lower"),
    "model.transmission_us": ("us", "lower"),
    "tracing.overhead_ms": ("ms", "lower"),
    "tracing.overhead_pct": ("%", "lower"),
}

PROBE_DRIVE = magpol.DriveField(ratio_delta=1.0, phase_phi=0.3)


def run_probes(ctx, api, tracer, stats, workloads):
    """Traced calls into every layer: fixed microcalls always, and one op of
    each command, scan, fit case or oracle draw that has no span yet.
    Returns the records of those ops (their checks count as usual)."""
    reps = 1 if ctx.tiny else 3
    records = []

    def ops(workload, indices, run=None):
        for index in indices:
            view = workload if run is None else SimpleNamespace(
                kind=workload.kind, run=run, check=workload.check
            )
            records.extend(run_loop(view, api, count=1, start=index, tracer=tracer)[0])

    for _ in range(reps):
        with tracer.span("import.cold"):
            run_python(ctx, "import magpol")
        with tracer.span("import.python"):
            run_python(ctx, "pass")

    cli = workloads[CliCold.name]
    with tracer.span("probe", kind="config"):
        for _ in range(5 * reps):
            api.load_config(os.path.join(ctx.root, CliCold.CONFIG))
    for index, command in enumerate(COMMANDS):
        if not tracer.durations("cli.cold", command):
            ops(cli, [index])
        ops(cli, [index], run=cli.warm)

    trace = api.trace(REFERENCE, PROBE_DRIVE, GRID)
    paths = {fmt: os.path.join(ctx.tmp, f"probe.{fmt.value}") for fmt in magpol.TraceFormat}
    for fmt, path in paths.items():
        with tracer.span("probe", kind=fmt.value):
            for _ in range(5 * reps):
                api.write_trace(trace, path, fmt)
    with tracer.span("probe", kind="read"):
        for _ in range(5 * reps):
            api.read_trace(paths[magpol.TraceFormat.TOUCHSTONE_S1P])

    with tracer.span("probe", kind="spectra"):
        for _ in range(20 * reps):
            api.trace(REFERENCE, PROBE_DRIVE, GRID)
        for _ in range(reps):
            api.sweep(REFERENCE, PROBE_DRIVE, magpol.SweepAxis.RATIO, Scan.SWEEP_RATIOS, GRID)
        for _ in range(5 * reps):
            api.classify_regime(REFERENCE, PROBE_DRIVE)
    with tracer.span("probe", kind="delay"):
        for _ in range(20 * reps):
            api.group_delay(REFERENCE, PROBE_DRIVE, GRID)
        for _ in range(20 * reps):
            point = api.find_zero_reflection(REFERENCE, 1.35 * math.pi)
        stats["delay.zero_residual"].append(point.residual)
    with tracer.span("probe", kind="model"):
        for _ in range(20 * reps):
            api.transmission(REFERENCE, PROBE_DRIVE, 0.0)

    if not tracer.durations("delay.delay_extremum_vs_ratio"):
        ops(workloads[Scan.name], [0])
    fit = workloads[Fit.name]
    for index, case in enumerate(Fit.kinds):
        if not tracer.durations("fit.fit_parameters", case):
            ops(fit, [index])
    if not tracer.durations("oracle.oracle_transmission"):
        ops(workloads["oracle"], [0])
    return records


def layer_metrics(tracer, stats, overhead_ms, overhead_pct):
    def median(name, kind=None, scale=1e3):
        return statistics.median(tracer.durations(name, kind)) * scale

    bytes_out = sum(
        statistics.median(stats[f"io.bytes_out.{c}"]) for c in COMMANDS if stats[f"io.bytes_out.{c}"]
    )
    values = {
        "import.cold_s": median("import.cold", scale=1.0),
        "import.python_s": median("import.python", scale=1.0),
        "config.load_ms": median("config.load_config"),
        **{f"cli.{c}.warm_ms": median("cli.dispatch", c) for c in COMMANDS},
        **{f"cli.{c}.cold_ms": median("cli.cold", c) for c in COMMANDS},
        "io.render_csv_ms": median("io.write_trace", "csv"),
        "io.render_touchstone_ms": median("io.write_trace", "s1p"),
        "io.read_trace_ms": median("io.read_trace"),
        "io.bytes_out": bytes_out,
        "spectra.trace_us": median("spectra.trace", scale=1e6),
        "spectra.sweep_ms": median("spectra.sweep"),
        "spectra.classify_ms": median("spectra.classify_regime"),
        # every sweep the benchmark makes is 41 ratios on the 1201-point grid
        "spectra.samples_per_s": Scan.SWEEP_RATIOS.size * GRID.count / median("spectra.sweep", scale=1.0),
        "delay.extremum_ms": median("delay.delay_extremum_vs_ratio"),
        "delay.group_delay_us": median("delay.group_delay", scale=1e6),
        "delay.zero_us": median("delay.find_zero_reflection", scale=1e6),
        "delay.zero_residual_max": max(stats["delay.zero_residual"], default=1.0),
        "fit.complex4_ms": median("fit.fit_parameters", "complex4"),
        "fit.complex9_ms": median("fit.fit_parameters", "complex9"),
        "fit.magnitude4_ms": median("fit.fit_parameters", "magnitude4"),
        "fit.nfev_per_fit": statistics.mean(stats["fit.nfev"] or [0]),
        "fit.converged_ratio": statistics.mean(stats["fit.converged"] or [0]),
        "oracle.draw_ms": median("oracle.oracle_transmission"),
        "oracle.timeouts": len(stats["oracle.timeouts"]),
        # a run whose draws all failed has no error to report; 1 stands for "no agreement"
        "oracle.max_rel_err": max(stats["oracle.rel_err"], default=1.0),
        "model.transmission_us": median("model.transmission", scale=1e6),
        "tracing.overhead_ms": overhead_ms,
        "tracing.overhead_pct": overhead_pct,
    }
    return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}
